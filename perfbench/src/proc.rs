//! Child processes the benchmark starts (`mqce serve`, `mqce enumerate
//! --shards`): each runs in a process group of its own, and the whole group
//! is killed and reaped when the handle is dropped — on normal exit, on a
//! timeout and while unwinding from a panic — so no daemon or shard worker
//! outlives the op that started it.

use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

pub struct Proc {
    child: Child,
    done: Option<ExitStatus>,
}

impl Proc {
    pub fn spawn(mut cmd: Command) -> std::io::Result<Proc> {
        use std::os::unix::process::CommandExt;
        cmd.process_group(0);
        Ok(Proc {
            child: cmd.spawn()?,
            done: None,
        })
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Waits up to `limit` for the process to exit; `None` on timeout.
    pub fn wait_timeout(&mut self, limit: Duration) -> Option<ExitStatus> {
        let start = Instant::now();
        loop {
            if let Some(status) = self.done {
                return Some(status);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                self.done = Some(status);
                return Some(status);
            }
            if start.elapsed() >= limit {
                return None;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Kills every process of the group (the child and anything it spawned,
    /// e.g. shard workers) and reaps the child.
    pub fn kill_group(&mut self) {
        let _ = Command::new("kill")
            .args(["-KILL", "--", &format!("-{}", self.child.id())])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        if self.done.is_none() {
            let _ = self.child.kill();
            self.done = self.child.wait().ok();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_group();
    }
}
