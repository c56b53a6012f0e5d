//! Helpers shared by the farm's integration tests.

use ldsim_server::{spawn_server, Exec, ExecConfig, ServeHandle};
use std::path::{Path, PathBuf};

/// A scratch path for `name`, removed if a previous run left it behind.
pub fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldsim-farm-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A two-worker farm over a four-shard store at `cache`, listening on an
/// ephemeral port; `cfg` adjusts the config first.
pub fn boot(cache: &Path, cfg: impl FnOnce(&mut ExecConfig)) -> ServeHandle {
    let mut c = ExecConfig {
        cache_dir: cache.to_path_buf(),
        shards: 4,
        workers: 2,
        ..ExecConfig::default()
    };
    cfg(&mut c);
    spawn_server(Exec::start(c), 0).expect("bind ephemeral port")
}
