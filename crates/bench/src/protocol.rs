//! Wire protocol of the `mqce serve` daemon.
//!
//! The daemon speaks newline-delimited JSON: one request object per line in,
//! one response object per line out, in order. The vendored `serde` derive
//! only handles named-field structs, so requests are built and walked as
//! [`serde::Value`] trees by hand, and responses are parsed through one.
//! Responses are *written* without a tree: [`Response::write_line`] emits
//! the fields directly, and a family that is answered many times can be
//! encoded once as [`EncodedSets`] and spliced in. This module is the single
//! place that knows the field names.
//!
//! A request selects a command (`enumerate`, `query`, `topk`, `ping`,
//! `update`, `shard_run`, `shutdown`) and may override any of the
//! per-request knobs (γ, θ, k, algorithm, branching, adjacency/S2 backends,
//! worker threads, a relative deadline in milliseconds). `update` carries
//! `insert` / `delete` edge lists (`[[u, v], …]`); `shard_run` carries an
//! encoded [`GraphSlice`](mqce_graph::GraphSlice) plus the shard's anchors
//! and global ranks, and is answered with a `shard_result` set stream (see
//! [`encode_set_stream`]). Responses echo the request `id` and carry the
//! result plus `cached` / `best_effort` / `s2_timed_out` status flags.
//!
//! Peers negotiate compatibility through the `version` field: a client may
//! stamp any request (a `ping` handshake by convention) with the protocol
//! version it speaks, and a daemon or worker that speaks a different version
//! answers with a typed `error_kind:"protocol_version"` failure instead of
//! an unknown-field error, so mixed-version deployments fail loudly and
//! diagnosably.

use serde::Value;

/// The protocol version this build speaks. Bumped on any incompatible wire
/// change; peers reject mismatches during the `ping` handshake.
pub const PROTOCOL_VERSION: u32 = 1;

/// One client request, decoded from a JSON line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Opaque id echoed in the response (string or number on the wire).
    pub id: Option<String>,
    /// Command: `enumerate`, `query`, `topk`, `ping`, `update` or
    /// `shutdown`.
    pub cmd: String,
    /// Density threshold γ.
    pub gamma: f64,
    /// Size threshold θ.
    pub theta: usize,
    /// How many largest MQCs to report (`topk` only).
    pub k: usize,
    /// Query vertices (`query` only).
    pub vertices: Vec<u32>,
    /// Edges to insert (`update` only), as `(u, v)` pairs.
    pub insert: Vec<(u32, u32)>,
    /// Edges to delete (`update` only), as `(u, v)` pairs.
    pub delete: Vec<(u32, u32)>,
    /// MQCE-S1 algorithm name (same values as `--algorithm`).
    pub algorithm: Option<String>,
    /// Branching strategy (same values as `--branching`).
    pub branching: Option<String>,
    /// Adjacency backend (same values as `--backend`).
    pub backend: Option<String>,
    /// S2 maximality backend (same values as `--s2-backend`).
    pub s2_backend: Option<String>,
    /// Worker threads for this request (1 = sequential).
    pub threads: usize,
    /// Relative deadline for the whole request, in milliseconds, measured
    /// from the moment the daemon reads the request. Covers queueing time:
    /// a request that spends its whole budget waiting for an enumeration
    /// slot still returns promptly, flagged best-effort.
    pub deadline_ms: Option<u64>,
    /// Bypass the result cache (neither read nor written).
    pub no_cache: bool,
    /// Include the MQC vertex sets in the response, not just the count.
    pub sets: bool,
    /// Debug-only fault injection mode (`panic`, `panic-locked`,
    /// `panic-worker:<v>`; shard workers also honour `die` and
    /// `panic:<anchor>`), used by the fault-containment tests. The daemon
    /// refuses it unless started with `--fault-injection`. Fault requests
    /// bypass the result cache entirely, so the field is not part of
    /// [`Request::cache_key`].
    pub fault: Option<String>,
    /// Protocol version the sender speaks. Stamped on the `ping` handshake;
    /// a peer speaking a different version rejects the request with a typed
    /// `error_kind:"protocol_version"` failure.
    pub version: Option<u32>,
    /// Encoded [`GraphSlice`](mqce_graph::GraphSlice) payload (`shard_run`
    /// only): the self-contained subgraph the shard's subproblems run on.
    pub slice: Option<String>,
    /// The shard's anchors as slice-local ids, in rank order (`shard_run`
    /// only).
    pub anchors: Vec<u32>,
    /// Per slice-local vertex: its global session rank (`shard_run` only).
    /// Ranks are only compared, never indexed, by the DC drivers.
    pub ranks: Vec<usize>,
    /// Which shard this payload is (`shard_run` only), echoed in the result
    /// so the coordinator can match asynchronous replies.
    pub shard_id: usize,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: None,
            cmd: "enumerate".to_string(),
            gamma: 0.9,
            theta: 2,
            k: 10,
            vertices: Vec::new(),
            insert: Vec::new(),
            delete: Vec::new(),
            algorithm: None,
            branching: None,
            backend: None,
            s2_backend: None,
            threads: 1,
            deadline_ms: None,
            no_cache: false,
            sets: false,
            fault: None,
            version: None,
            slice: None,
            anchors: Vec::new(),
            ranks: Vec::new(),
            shard_id: 0,
        }
    }
}

/// One daemon response, encoded as a JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Response {
    /// The request id, echoed back.
    pub id: Option<String>,
    /// Whether the request was understood and executed.
    pub ok: bool,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Whether the result came from the daemon's result cache.
    pub cached: bool,
    /// Whether the result is best-effort (deadline cut the work short, or
    /// the request expired while queued for an enumeration slot).
    pub best_effort: bool,
    /// Whether the S2 maximality filter hit its deadline (the MQC list is
    /// then a sound partial antichain).
    pub s2_timed_out: bool,
    /// Wall-clock time the daemon spent on this request, in milliseconds
    /// (near zero for cache hits).
    pub elapsed_ms: f64,
    /// Number of maximal quasi-cliques found.
    pub count: usize,
    /// The MQC vertex sets (present only when the request set `sets`).
    pub mqcs: Option<Vec<Vec<u32>>>,
    /// Extra fields (ping statistics, graph fingerprint, …), carried
    /// verbatim so the protocol can grow without breaking old clients.
    pub extra: Vec<(String, Value)>,
}

/// Renders a value tree as one compact JSON line (no trailing newline).
pub fn value_to_line(value: &Value) -> String {
    let mut out = String::new();
    serde_json::write_compact(&mut out, value);
    out
}

/// A family of vertex sets encoded once as its JSON array text
/// (`[[0,1,2],[3,4]]`). A server that answers the same family many times
/// keeps it in this form and splices it into each response line with
/// [`Response::write_line`] instead of re-encoding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedSets(String);

impl EncodedSets {
    /// Encodes `sets`.
    pub fn new(sets: &[Vec<u32>]) -> EncodedSets {
        let mut out = String::new();
        write_sets(&mut out, sets);
        EncodedSets(out)
    }

    /// The JSON text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Appends `sets` as a JSON array of arrays, each vertex id through the
/// integer writer.
fn write_sets(out: &mut String, sets: &[Vec<u32>]) {
    out.push('[');
    for (i, set) in sets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in set.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            serde_json::write_u64(out, u64::from(v));
        }
        out.push(']');
    }
    out.push(']');
}

fn get<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn expect_object(value: &Value) -> Result<&[(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err("request must be a JSON object".to_string()),
    }
}

fn as_f64(v: &Value, name: &str) -> Result<f64, String> {
    match v {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("field `{name}` must be a number")),
    }
}

fn as_usize(v: &Value, name: &str) -> Result<usize, String> {
    let n = as_f64(v, name)?;
    if n.fract() != 0.0 || n < 0.0 {
        return Err(format!("field `{name}` must be a non-negative integer"));
    }
    Ok(n as usize)
}

fn as_bool(v: &Value, name: &str) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field `{name}` must be a boolean")),
    }
}

fn as_str(v: &Value, name: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("field `{name}` must be a string")),
    }
}

/// Request ids may be strings or numbers on the wire; both normalise to a
/// string so the daemon can echo them without tracking the original type.
fn as_id(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        Value::Num(n) if n.fract() == 0.0 => Ok(format!("{}", *n as i64)),
        Value::Num(n) => Ok(format!("{n}")),
        _ => Err("field `id` must be a string or number".to_string()),
    }
}

fn as_vertices(v: &Value) -> Result<Vec<u32>, String> {
    match v {
        Value::Array(items) => items
            .iter()
            .map(|item| {
                let n = as_f64(item, "vertices")?;
                if n.fract() != 0.0 || n < 0.0 || n > u32::MAX as f64 {
                    return Err("field `vertices` must list vertex ids".to_string());
                }
                Ok(n as u32)
            })
            .collect(),
        _ => Err("field `vertices` must be an array of vertex ids".to_string()),
    }
}

/// Decodes an edge list (`[[u, v], …]`) from a value tree.
fn as_edges(v: &Value, name: &str) -> Result<Vec<(u32, u32)>, String> {
    let Value::Array(items) = v else {
        return Err(format!("field `{name}` must be an array of [u, v] pairs"));
    };
    items
        .iter()
        .map(|item| {
            let pair = as_vertices(item)
                .map_err(|_| format!("field `{name}` must be an array of [u, v] pairs"))?;
            match pair[..] {
                [u, v] => Ok((u, v)),
                _ => Err(format!("field `{name}` entries must be [u, v] pairs")),
            }
        })
        .collect()
}

impl Request {
    /// Decodes a request from one JSON line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let value = serde_json::parse_value(line).map_err(|e| format!("bad JSON: {e}"))?;
        Request::from_value(&value)
    }

    /// Decodes a request from a value tree. Unknown fields are rejected so a
    /// typo (`"gama"`) fails loudly instead of silently running defaults.
    pub fn from_value(value: &Value) -> Result<Request, String> {
        let fields = expect_object(value)?;
        let mut req = Request::default();
        for (key, v) in fields {
            if matches!(v, Value::Null) {
                continue;
            }
            match key.as_str() {
                "id" => req.id = Some(as_id(v)?),
                "cmd" => req.cmd = as_str(v, "cmd")?.to_ascii_lowercase(),
                "gamma" => req.gamma = as_f64(v, "gamma")?,
                "theta" => req.theta = as_usize(v, "theta")?,
                "k" => req.k = as_usize(v, "k")?,
                "vertices" => req.vertices = as_vertices(v)?,
                "insert" => req.insert = as_edges(v, "insert")?,
                "delete" => req.delete = as_edges(v, "delete")?,
                "algorithm" => req.algorithm = Some(as_str(v, "algorithm")?),
                "branching" => req.branching = Some(as_str(v, "branching")?),
                "backend" => req.backend = Some(as_str(v, "backend")?),
                "s2_backend" => req.s2_backend = Some(as_str(v, "s2_backend")?),
                "threads" => req.threads = as_usize(v, "threads")?,
                "deadline_ms" => req.deadline_ms = Some(as_usize(v, "deadline_ms")? as u64),
                "no_cache" => req.no_cache = as_bool(v, "no_cache")?,
                "sets" => req.sets = as_bool(v, "sets")?,
                "fault" => req.fault = Some(as_str(v, "fault")?),
                "version" => req.version = Some(as_usize(v, "version")? as u32),
                "slice" => req.slice = Some(as_str(v, "slice")?),
                "anchors" => {
                    req.anchors =
                        as_vertices(v).map_err(|_| "field `anchors` must list vertex ids")?
                }
                "ranks" => {
                    let Value::Array(items) = v else {
                        return Err("field `ranks` must be an array of ranks".to_string());
                    };
                    req.ranks = items
                        .iter()
                        .map(|item| as_usize(item, "ranks"))
                        .collect::<Result<_, _>>()?;
                }
                "shard_id" => req.shard_id = as_usize(v, "shard_id")?,
                other => return Err(format!("unknown request field `{other}`")),
            }
        }
        match req.cmd.as_str() {
            "enumerate" | "query" | "topk" | "ping" | "update" | "shard_run" | "shutdown" => {
                Ok(req)
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// Encodes the request as a value tree (the client side of the wire).
    /// Defaults are omitted, so a minimal request stays minimal on the wire.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        if let Some(id) = &self.id {
            push("id", Value::Str(id.clone()));
        }
        push("cmd", Value::Str(self.cmd.clone()));
        push("gamma", Value::Num(self.gamma));
        push("theta", Value::Num(self.theta as f64));
        if self.cmd == "topk" {
            push("k", Value::Num(self.k as f64));
        }
        if !self.vertices.is_empty() {
            push(
                "vertices",
                Value::Array(
                    self.vertices
                        .iter()
                        .map(|&v| Value::Num(v as f64))
                        .collect(),
                ),
            );
        }
        let edges_value = |edges: &[(u32, u32)]| {
            Value::Array(
                edges
                    .iter()
                    .map(|&(u, v)| Value::Array(vec![Value::Num(u as f64), Value::Num(v as f64)]))
                    .collect(),
            )
        };
        if !self.insert.is_empty() {
            push("insert", edges_value(&self.insert));
        }
        if !self.delete.is_empty() {
            push("delete", edges_value(&self.delete));
        }
        for (key, opt) in [
            ("algorithm", &self.algorithm),
            ("branching", &self.branching),
            ("backend", &self.backend),
            ("s2_backend", &self.s2_backend),
        ] {
            if let Some(s) = opt {
                push(key, Value::Str(s.clone()));
            }
        }
        if self.threads != 1 {
            push("threads", Value::Num(self.threads as f64));
        }
        if let Some(ms) = self.deadline_ms {
            push("deadline_ms", Value::Num(ms as f64));
        }
        if self.no_cache {
            push("no_cache", Value::Bool(true));
        }
        if self.sets {
            push("sets", Value::Bool(true));
        }
        if let Some(fault) = &self.fault {
            push("fault", Value::Str(fault.clone()));
        }
        if let Some(version) = self.version {
            push("version", Value::Num(version as f64));
        }
        if let Some(slice) = &self.slice {
            push("slice", Value::Str(slice.clone()));
        }
        if !self.anchors.is_empty() {
            push(
                "anchors",
                Value::Array(self.anchors.iter().map(|&v| Value::Num(v as f64)).collect()),
            );
        }
        if !self.ranks.is_empty() {
            push(
                "ranks",
                Value::Array(self.ranks.iter().map(|&r| Value::Num(r as f64)).collect()),
            );
        }
        if self.cmd == "shard_run" {
            push("shard_id", Value::Num(self.shard_id as f64));
        }
        Value::Object(fields)
    }

    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        value_to_line(&self.to_value())
    }

    /// Canonical cache key: graph fingerprint plus every parameter that can
    /// change the *result*. Presentation and scheduling knobs — `id`,
    /// `sets`, `threads`, `deadline_ms`, `no_cache` — are deliberately
    /// excluded: a cached complete answer is valid for any of them. Query
    /// vertices are sorted and deduplicated (the candidate universe is an
    /// intersection, so order and multiplicity cannot matter).
    pub fn cache_key(&self, fingerprint: u64) -> String {
        let norm = |opt: &Option<String>, default: &str| {
            opt.as_deref().unwrap_or(default).to_ascii_lowercase()
        };
        let mut vertices = self.vertices.clone();
        vertices.sort_unstable();
        vertices.dedup();
        let verts: Vec<String> = vertices.iter().map(|v| v.to_string()).collect();
        format!(
            "{fingerprint:016x}|{cmd}|g={gamma}|t={theta}|k={k}|v={verts}|a={alg}|br={br}|ab={ab}|s2={s2}",
            cmd = self.cmd,
            gamma = self.gamma,
            theta = self.theta,
            k = if self.cmd == "topk" { self.k } else { 0 },
            verts = verts.join(","),
            alg = norm(&self.algorithm, "dcfastqc"),
            br = norm(&self.branching, "hybrid"),
            ab = norm(&self.backend, "auto"),
            s2 = norm(&self.s2_backend, "auto"),
        )
    }
}

/// Flattens a family of vertex sets into the length-prefixed number stream
/// carried by `shard_result` responses: `[len₀, v…, len₁, v…]`. One flat
/// array keeps the vendored value tree shallow for large families.
pub fn encode_set_stream(sets: &[Vec<u32>]) -> Value {
    let mut stream = Vec::with_capacity(sets.iter().map(|s| s.len() + 1).sum());
    for set in sets {
        stream.push(Value::Num(set.len() as f64));
        stream.extend(set.iter().map(|&v| Value::Num(v as f64)));
    }
    Value::Array(stream)
}

/// Decodes a length-prefixed set stream (the inverse of
/// [`encode_set_stream`]), rejecting truncated or malformed payloads.
pub fn decode_set_stream(value: &Value) -> Result<Vec<Vec<u32>>, String> {
    let Value::Array(items) = value else {
        return Err("set stream must be an array".to_string());
    };
    let num = |v: &Value| -> Result<usize, String> {
        match v {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u32::MAX as f64 => {
                Ok(*n as usize)
            }
            _ => Err("set stream entries must be non-negative integers".to_string()),
        }
    };
    let mut sets = Vec::new();
    let mut i = 0;
    while i < items.len() {
        let len = num(&items[i])?;
        i += 1;
        if i + len > items.len() {
            return Err("set stream truncated mid-set".to_string());
        }
        let set = items[i..i + len]
            .iter()
            .map(|v| num(v).map(|x| x as u32))
            .collect::<Result<Vec<u32>, _>>()?;
        i += len;
        sets.push(set);
    }
    Ok(sets)
}

impl Response {
    /// A failed response carrying an error message.
    pub fn failure(id: Option<String>, error: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            error: Some(error.into()),
            ..Response::default()
        }
    }

    /// The typed failure a peer answers when the sender's `version` does not
    /// match its own: carries `error_kind:"protocol_version"` plus the
    /// version this build speaks, so the client can report the mismatch
    /// precisely instead of guessing from an unknown-field error.
    pub fn version_mismatch(id: Option<String>, theirs: u32) -> Response {
        let mut response = Response::failure(
            id,
            format!(
                "protocol version mismatch: peer speaks v{theirs}, this build speaks v{PROTOCOL_VERSION}"
            ),
        );
        response.extra.push((
            "error_kind".to_string(),
            Value::Str("protocol_version".to_string()),
        ));
        response.extra.push((
            "protocol_version".to_string(),
            Value::Num(PROTOCOL_VERSION as f64),
        ));
        response
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out, None);
        out
    }

    /// Appends the response to `out` as one JSON line (no trailing newline),
    /// written straight from the fields: `id`, `ok`, `error`, the status
    /// flags, `elapsed_ms`, `count`, `mqcs`, then `extra` in order. Absent
    /// options are omitted. `mqcs`, when given, is written as the `mqcs`
    /// member in place of `self.mqcs`, so a family encoded once can go out
    /// in many responses.
    pub fn write_line(&self, out: &mut String, mqcs: Option<&EncodedSets>) {
        let field = |out: &mut String, name: &str| {
            out.push(',');
            serde_json::write_str(out, name);
            out.push(':');
        };
        let flag = |b: bool| if b { "true" } else { "false" };
        out.push('{');
        if let Some(id) = &self.id {
            out.push_str("\"id\":");
            serde_json::write_str(out, id);
            out.push(',');
        }
        out.push_str("\"ok\":");
        out.push_str(flag(self.ok));
        if let Some(err) = &self.error {
            field(out, "error");
            serde_json::write_str(out, err);
        }
        for (name, value) in [
            ("cached", self.cached),
            ("best_effort", self.best_effort),
            ("s2_timed_out", self.s2_timed_out),
        ] {
            field(out, name);
            out.push_str(flag(value));
        }
        field(out, "elapsed_ms");
        serde_json::write_num(out, self.elapsed_ms);
        field(out, "count");
        serde_json::write_u64(out, self.count as u64);
        if let Some(sets) = mqcs {
            field(out, "mqcs");
            out.push_str(sets.as_str());
        } else if let Some(sets) = &self.mqcs {
            field(out, "mqcs");
            write_sets(out, sets);
        }
        for (key, value) in &self.extra {
            field(out, key);
            serde_json::write_compact(out, value);
        }
        out.push('}');
    }

    /// Decodes a response from one JSON line (the client side).
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let value = serde_json::parse_value(line).map_err(|e| format!("bad JSON: {e}"))?;
        let fields = expect_object(&value)?;
        let mut resp = Response::default();
        for (key, v) in fields {
            match key.as_str() {
                "id" => resp.id = Some(as_id(v)?),
                "ok" => resp.ok = as_bool(v, "ok")?,
                "error" => resp.error = Some(as_str(v, "error")?),
                "cached" => resp.cached = as_bool(v, "cached")?,
                "best_effort" => resp.best_effort = as_bool(v, "best_effort")?,
                "s2_timed_out" => resp.s2_timed_out = as_bool(v, "s2_timed_out")?,
                "elapsed_ms" => resp.elapsed_ms = as_f64(v, "elapsed_ms")?,
                "count" => resp.count = as_usize(v, "count")?,
                "mqcs" => {
                    let sets = match v {
                        Value::Array(rows) => rows
                            .iter()
                            .map(as_vertices)
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => return Err("field `mqcs` must be an array".to_string()),
                    };
                    resp.mqcs = Some(sets);
                }
                other => resp.extra.push((other.to_string(), v.clone())),
            }
        }
        Ok(resp)
    }

    /// Looks up a numeric field in `extra` (ping statistics).
    pub fn extra_num(&self, name: &str) -> Option<f64> {
        get(&self.extra, name).and_then(|v| match v {
            Value::Num(n) => Some(*n),
            _ => None,
        })
    }

    /// Looks up a string field in `extra` (e.g. the graph fingerprint).
    pub fn extra_str(&self, name: &str) -> Option<&str> {
        get(&self.extra, name).and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = Request {
            id: Some("r1".to_string()),
            cmd: "query".to_string(),
            gamma: 0.8,
            theta: 3,
            vertices: vec![4, 1, 9],
            algorithm: Some("fastqc".to_string()),
            threads: 4,
            deadline_ms: Some(250),
            no_cache: true,
            sets: true,
            fault: Some("panic-worker:3".to_string()),
            ..Request::default()
        };
        let line = req.to_line();
        assert_eq!(Request::parse_line(&line).unwrap(), req);
        // Minimal request: defaults fill in.
        let min = Request::parse_line(r#"{"cmd":"enumerate"}"#).unwrap();
        assert_eq!(min.gamma, 0.9);
        assert_eq!(min.theta, 2);
        assert!(!min.sets);
    }

    #[test]
    fn update_requests_roundtrip() {
        let req = Request {
            id: Some("u1".to_string()),
            cmd: "update".to_string(),
            insert: vec![(1, 2), (3, 4)],
            delete: vec![(5, 6)],
            ..Request::default()
        };
        assert_eq!(Request::parse_line(&req.to_line()).unwrap(), req);
        // Malformed edge lists are rejected loudly.
        assert!(Request::parse_line(r#"{"cmd":"update","insert":[[1]]}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"update","insert":[1,2]}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"update","delete":[[1,2,3]]}"#).is_err());
    }

    #[test]
    fn numeric_ids_normalise_to_strings() {
        let req = Request::parse_line(r#"{"cmd":"ping","id":7}"#).unwrap();
        assert_eq!(req.id.as_deref(), Some("7"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::parse_line("not json").is_err());
        assert!(Request::parse_line(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"enumerate","gama":0.9}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"enumerate","theta":-1}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"enumerate","vertices":[1.5]}"#).is_err());
        assert!(Request::parse_line(r#"[1,2]"#).is_err());
    }

    #[test]
    fn cache_key_ignores_presentation_and_scheduling_knobs() {
        let base = Request {
            cmd: "enumerate".to_string(),
            gamma: 0.85,
            theta: 4,
            ..Request::default()
        };
        let mut varied = base.clone();
        varied.id = Some("x".to_string());
        varied.sets = true;
        varied.threads = 8;
        varied.deadline_ms = Some(1000);
        varied.fault = Some("panic".to_string());
        assert_eq!(base.cache_key(42), varied.cache_key(42));
        // ... but result-affecting parameters and the graph identity do key.
        let mut other = base.clone();
        other.gamma = 0.9;
        assert_ne!(base.cache_key(42), other.cache_key(42));
        assert_ne!(base.cache_key(42), base.cache_key(43));
        // Explicit defaults normalise to the same key as omitted options.
        let mut explicit = base.clone();
        explicit.algorithm = Some("DCFastQC".to_string());
        explicit.s2_backend = Some("AUTO".to_string());
        assert_eq!(base.cache_key(42), explicit.cache_key(42));
    }

    #[test]
    fn query_vertex_order_does_not_change_the_key() {
        let a = Request {
            cmd: "query".to_string(),
            vertices: vec![3, 1, 2],
            ..Request::default()
        };
        let b = Request {
            cmd: "query".to_string(),
            vertices: vec![2, 3, 1, 1],
            ..Request::default()
        };
        assert_eq!(a.cache_key(7), b.cache_key(7));
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resp = Response {
            id: Some("r1".to_string()),
            ok: true,
            cached: true,
            best_effort: false,
            s2_timed_out: false,
            elapsed_ms: 1.25,
            count: 2,
            mqcs: Some(vec![vec![0, 1, 2], vec![3, 4, 5]]),
            extra: vec![("fingerprint".to_string(), Value::Str("abc".to_string()))],
            ..Response::default()
        };
        let line = resp.to_line();
        let back = Response::parse_line(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.extra_str("fingerprint"), Some("abc"));
        assert_eq!(back.extra_num("fingerprint"), None);
    }

    #[test]
    fn shard_run_requests_roundtrip() {
        let req = Request {
            id: Some("s0".to_string()),
            cmd: "shard_run".to_string(),
            gamma: 0.85,
            theta: 5,
            version: Some(PROTOCOL_VERSION),
            slice: Some("MQSL1 0 0 0 deadbeefdeadbeef".to_string()),
            anchors: vec![0, 2, 5],
            ranks: vec![7, 8, 9, 10],
            shard_id: 2,
            ..Request::default()
        };
        assert_eq!(Request::parse_line(&req.to_line()).unwrap(), req);
        // Bad rank payloads are rejected loudly.
        assert!(Request::parse_line(r#"{"cmd":"shard_run","ranks":[1.5]}"#).is_err());
        assert!(Request::parse_line(r#"{"cmd":"shard_run","ranks":7}"#).is_err());
    }

    #[test]
    fn set_streams_roundtrip_and_reject_truncation() {
        let sets = vec![vec![0u32, 3, 9], vec![], vec![7]];
        let stream = encode_set_stream(&sets);
        assert_eq!(decode_set_stream(&stream).unwrap(), sets);
        assert_eq!(
            decode_set_stream(&encode_set_stream(&[])).unwrap(),
            Vec::<Vec<u32>>::new()
        );
        // A length prefix pointing past the end of the stream is truncation.
        let truncated = Value::Array(vec![Value::Num(3.0), Value::Num(1.0)]);
        assert!(decode_set_stream(&truncated).is_err());
        assert!(decode_set_stream(&Value::Num(1.0)).is_err());
        assert!(decode_set_stream(&Value::Array(vec![Value::Num(-1.0)])).is_err());
    }

    #[test]
    fn version_mismatch_is_typed() {
        let resp = Response::version_mismatch(Some("h".to_string()), 9);
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.extra_str("error_kind"), Some("protocol_version"));
        assert_eq!(
            back.extra_num("protocol_version"),
            Some(PROTOCOL_VERSION as f64)
        );
        assert!(back.error.unwrap().contains("v9"));
    }

    #[test]
    fn failure_responses_carry_the_error() {
        let resp = Response::failure(Some("q".to_string()), "boom");
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("boom"));
        assert_eq!(back.id.as_deref(), Some("q"));
    }
    /// The responses of the encoder-identity check: an error, an empty
    /// family, a cache hit, non-integral times, string/number/nested
    /// extras and an escaped unicode id.
    fn golden_cases() -> Vec<Response> {
        let num = Value::Num;
        let text = |s: &str| Value::Str(s.to_string());
        vec![
            Response::failure(Some("e1".to_string()), "boom: \"quoted\"\n\ttab"),
            Response::version_mismatch(None, 9),
            Response {
                id: Some("empty".to_string()),
                ok: true,
                mqcs: Some(Vec::new()),
                ..Response::default()
            },
            Response {
                id: Some("hit".to_string()),
                ok: true,
                cached: true,
                elapsed_ms: 0.004217,
                count: 3,
                mqcs: Some(vec![vec![0, 1, 2], vec![3, 4, 5, u32::MAX], vec![7]]),
                extra: vec![("universe".to_string(), num(12.0))],
                ..Response::default()
            },
            Response {
                ok: true,
                best_effort: true,
                s2_timed_out: true,
                elapsed_ms: 1234.5678901,
                count: 40_000_000,
                extra: vec![
                    ("s2_engine".to_string(), text("bitset")),
                    ("rounds".to_string(), num(3.0)),
                    ("ratio".to_string(), num(0.25)),
                    ("neg".to_string(), num(-7.0)),
                    ("tiny".to_string(), num(1e-7)),
                    (
                        "set_stream".to_string(),
                        Value::Array(vec![num(2.0), num(5.0), num(9.0), num(0.0)]),
                    ),
                    (
                        "nested".to_string(),
                        Value::Object(vec![
                            ("flag".to_string(), Value::Bool(false)),
                            ("none".to_string(), Value::Null),
                            ("k\"ey".to_string(), text("v\\al")),
                        ]),
                    ),
                ],
                ..Response::default()
            },
            Response {
                id: Some("γ½ \"q\" \\ \t\u{1}\u{1f} ok".to_string()),
                ok: true,
                elapsed_ms: 12.5,
                count: 1,
                mqcs: Some(vec![vec![]]),
                ..Response::default()
            },
            Response {
                ok: true,
                elapsed_ms: 3.0,
                ..Response::default()
            },
        ]
    }

    /// What the tree-building encoder this module used to have wrote for
    /// [`golden_cases`], captured byte for byte.
    const GOLDEN_LINES: [&str; 7] = [
        "{\"id\":\"e1\",\"ok\":false,\"error\":\"boom: \\\"quoted\\\"\\n\\ttab\",\"cached\":false,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":0,\"count\":0}",
        "{\"ok\":false,\"error\":\"protocol version mismatch: peer speaks v9, this build speaks v1\",\"cached\":false,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":0,\"count\":0,\"error_kind\":\"protocol_version\",\"protocol_version\":1}",
        "{\"id\":\"empty\",\"ok\":true,\"cached\":false,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":0,\"count\":0,\"mqcs\":[]}",
        "{\"id\":\"hit\",\"ok\":true,\"cached\":true,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":0.004217,\"count\":3,\"mqcs\":[[0,1,2],[3,4,5,4294967295],[7]],\"universe\":12}",
        "{\"ok\":true,\"cached\":false,\"best_effort\":true,\"s2_timed_out\":true,\"elapsed_ms\":1234.5678901,\"count\":40000000,\"s2_engine\":\"bitset\",\"rounds\":3,\"ratio\":0.25,\"neg\":-7,\"tiny\":0.0000001,\"set_stream\":[2,5,9,0],\"nested\":{\"flag\":false,\"none\":null,\"k\\\"ey\":\"v\\\\al\"}}",
        "{\"id\":\"γ½ \\\"q\\\" \\\\ \\t\\u0001\\u001f ok\",\"ok\":true,\"cached\":false,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":12.5,\"count\":1,\"mqcs\":[[]]}",
        "{\"ok\":true,\"cached\":false,\"best_effort\":false,\"s2_timed_out\":false,\"elapsed_ms\":3,\"count\":0}",
    ];

    #[test]
    fn direct_encoder_matches_the_tree_encoder_byte_for_byte() {
        for (response, golden) in golden_cases().iter().zip(GOLDEN_LINES) {
            assert_eq!(response.to_line(), golden);
            assert_eq!(&Response::parse_line(golden).unwrap(), response);
        }
    }

    #[test]
    fn spliced_families_encode_like_owned_ones() {
        for response in golden_cases() {
            let Some(sets) = &response.mqcs else { continue };
            let header = Response {
                mqcs: None,
                ..response.clone()
            };
            let mut line = String::new();
            header.write_line(&mut line, Some(&EncodedSets::new(sets)));
            assert_eq!(line, response.to_line());
        }
    }
}
