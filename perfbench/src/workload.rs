//! Workload definitions: the input graphs, the parameters they are
//! enumerated with, and the seeded query/topk/update operation mix.

use std::path::{Path, PathBuf};

use mqce_core::MqceConfig;
use mqce_graph::delta::GraphDelta;
use mqce_graph::generators::{
    community_graph, planted_quasi_cliques, CommunityGraphParams, PlantedGroup,
};
use mqce_graph::{Graph, VertexId};

use crate::util::Rng;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    DenseCommunities,
    SparsePlanted,
    ServeMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "dense-communities" => Some(Kind::DenseCommunities),
            "sparse-planted" => Some(Kind::SparsePlanted),
            "serve-mixed" => Some(Kind::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseCommunities => "dense-communities",
            Kind::SparsePlanted => "sparse-planted",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    /// `(γ, θ)` the workload enumerates with.
    pub fn params(self) -> (f64, usize) {
        match self {
            Kind::DenseCommunities | Kind::ServeMixed => (0.9, 8),
            Kind::SparsePlanted => (0.9, 5),
        }
    }

    pub fn config(self) -> MqceConfig {
        let (gamma, theta) = self.params();
        MqceConfig::new(gamma, theta).expect("workload parameters are valid")
    }

    /// How the run's seconds are split. Sparse-planted's sharded run alone
    /// takes most of a run (the per-anchor cost defect), and its mix reaches
    /// its query count quickly; the dense graph's mix needs most of a run
    /// for its query count, and the daemon's mix is its point.
    pub fn shares(self) -> Shares {
        match self {
            Kind::SparsePlanted => Shares {
                setup: 0.02,
                run: 0.14,
                sharded: 0.45,
                mix: 0.2,
            },
            Kind::DenseCommunities => Shares {
                setup: 0.02,
                run: 0.12,
                sharded: 0.16,
                mix: 0.5,
            },
            // Set-up is a fixed number of daemon starts before the schedule.
            Kind::ServeMixed => Shares {
                setup: 0.0,
                run: 0.1,
                sharded: 0.1,
                mix: 0.6,
            },
        }
    }

    /// The input graph: one fixed instance per workload, whatever the seed,
    /// which drives the operation stream only. Search cost is heavy-tailed
    /// across generator seeds (a community that happens to be near-complete
    /// can multiply the dense graph's run time a thousandfold), relabelling
    /// the dense graph moves its branch count by ±8%, and the sparse graph's
    /// sharded run time grows with the square of its largest slice; drawing
    /// the graph from the seed would measure the draw, not the code.
    pub fn generate(self) -> Graph {
        match self {
            Kind::DenseCommunities | Kind::ServeMixed => community_graph(
                CommunityGraphParams {
                    n: 800,
                    num_communities: 40,
                    p_intra: 0.9,
                    inter_degree: 0.5,
                },
                DENSE_GRAPH_SEED,
            ),
            Kind::SparsePlanted => {
                let n = SPARSE_N;
                let groups: Vec<PlantedGroup> = (0..n / 250)
                    .map(|i| PlantedGroup {
                        size: 9 + i % 5,
                        density: 0.95,
                    })
                    .collect();
                planted_quasi_cliques(n, 6.0 / n as f64, &groups, SPARSE_GRAPH_SEED)
            }
        }
    }

    /// Generates the graph (outside every timed region) and writes it as an
    /// edge list; returns the file path.
    pub fn write_input(self, dir: &Path) -> PathBuf {
        let graph_name = match self {
            Kind::SparsePlanted => "sparse-planted",
            _ => "dense-communities",
        };
        let path = dir.join(format!("{graph_name}.txt"));
        let g = self.generate();
        mqce_graph::edge_list::save_edge_list(&g, &path).expect("write the workload graph");
        path
    }
}

/// Shares of a run's seconds given to each op (`run` is per thread count).
pub struct Shares {
    pub setup: f64,
    pub run: f64,
    pub sharded: f64,
    pub mix: f64,
}

/// Queries a mix phase runs at least, so the p99 has ten samples beyond it.
pub const MIN_QUERIES: usize = 1000;

/// Generator seed of the dense community instance (the `threads` bench
/// profile's community-800).
pub const DENSE_GRAPH_SEED: u64 = 7;
/// Generator seed of the sparse planted instance.
pub const SPARSE_GRAPH_SEED: u64 = 11;

/// Vertex count of the sparse-planted graph.
pub const SPARSE_N: usize = 20_000;

/// One operation of the mixed query/topk/update stream.
pub enum MixOp {
    Query(VertexId),
    TopK,
    Update(GraphDelta),
}

/// Hot-set size of the query mix.
pub const HOT_SET: usize = 16;
/// `k` of every `topk` op.
pub const TOPK_K: usize = 10;

/// Update pairs in each client's pool.
pub const POOL_PAIRS: usize = 32;

/// The seeded op stream of one client: about 85% single-vertex queries, 5%
/// `topk k=10` and 10% single-edge updates. With a hot set (for a client of
/// the caching daemon) half of the queries go to the 16 hubs, the
/// highest-degree vertices, which hit the cache until an update invalidates
/// them; in process there is no cache, and every query walks.
///
/// The costs of both queries and updates are heavy-tailed across vertices
/// and edges, so the stream samples fixed populations without replacement
/// rather than drawing afresh: uniform queries walk a seeded permutation of
/// all vertices, and updates cycle through a seeded order of a fixed pool
/// of edges. Updates come in pairs on one edge — insert then delete, or
/// delete then re-insert — so the graph keeps returning to its generated
/// state and the stream is stationary. Client `lane` of `lanes` only
/// touches edges whose smaller endpoint is `lane` modulo `lanes`, so
/// concurrent clients' updates commute.
pub struct MixGen {
    rng: Rng,
    hot: Vec<VertexId>,
    walk: Vec<VertexId>,
    walked: usize,
    pool: Vec<(GraphDelta, GraphDelta)>,
    drawn: usize,
    pending: Option<GraphDelta>,
}

impl MixGen {
    pub fn new(seed: u64, lane: usize, lanes: usize, g: &Graph, hot_set: bool) -> MixGen {
        let n = g.num_vertices();
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(lane as u64 + 1));
        // The hubs, ties to the lower id.
        let mut hot: Vec<VertexId> = (0..n as VertexId).collect();
        hot.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        hot.truncate(if hot_set { HOT_SET } else { 0 });
        let mut walk: Vec<VertexId> = (0..n as VertexId).collect();
        shuffle(&mut walk, &mut rng);
        let mut pool = edge_pool(g, lane, lanes);
        shuffle(&mut pool, &mut rng);
        MixGen {
            rng,
            hot,
            walk,
            walked: 0,
            pool,
            drawn: 0,
            pending: None,
        }
    }

    pub fn next(&mut self) -> MixOp {
        let r = self.rng.unit();
        if r < 0.85 {
            let v = if self.hot.is_empty() || self.rng.below(2) == 0 {
                self.walked += 1;
                self.walk[(self.walked - 1) % self.walk.len()]
            } else {
                self.hot[self.rng.below(self.hot.len())]
            };
            MixOp::Query(v)
        } else if r < 0.90 {
            MixOp::TopK
        } else {
            MixOp::Update(self.next_update())
        }
    }

    /// The next update: the second half of the pending pair, or the first
    /// half of the pool's next pair.
    pub fn next_update(&mut self) -> GraphDelta {
        if let Some(delta) = self.pending.take() {
            return delta;
        }
        let (first, second) = self.pool[self.drawn % self.pool.len()].clone();
        self.drawn += 1;
        self.pending = Some(second);
        first
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `POOL_PAIRS` update pairs on edges of `lane`, chosen against `g` with a
/// fixed seed: half delete an edge and re-insert it, half insert a
/// non-edge and delete it again.
fn edge_pool(g: &Graph, lane: usize, lanes: usize) -> Vec<(GraphDelta, GraphDelta)> {
    let n = g.num_vertices();
    let mut rng = Rng::new(0x706f_6f6c ^ lane as u64);
    let mut seen = std::collections::BTreeSet::new();
    let mut pool = Vec::with_capacity(POOL_PAIRS);
    while pool.len() < POOL_PAIRS {
        let delete = pool.len() % 2 == 0;
        let u = rng.below(n) as VertexId;
        let v = if delete {
            let nbrs = g.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            nbrs[rng.below(nbrs.len())]
        } else {
            rng.below(n) as VertexId
        };
        let edge = (u.min(v), u.max(v));
        if u == v || (edge.0 as usize) % lanes != lane || (!delete && g.has_edge(u, v)) {
            continue;
        }
        if !seen.insert(edge) {
            continue;
        }
        let (add, remove) = (
            GraphDelta::new(vec![edge], Vec::new()),
            GraphDelta::new(Vec::new(), vec![edge]),
        );
        pool.push(if delete { (remove, add) } else { (add, remove) });
    }
    pool
}

/// The maximal sets of `family` that contain `v`, in family order.
pub fn containing(family: &[Vec<VertexId>], v: VertexId) -> Vec<Vec<VertexId>> {
    family
        .iter()
        .filter(|s| s.binary_search(&v).is_ok())
        .cloned()
        .collect()
}

/// The `k` largest sets of `family` (ties lexicographic), i.e. what `topk`
/// must answer whenever the family holds at least `k` sets.
pub fn largest(family: &[Vec<VertexId>], k: usize) -> Vec<Vec<VertexId>> {
    let mut sets = family.to_vec();
    sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    sets.truncate(k);
    sets
}
