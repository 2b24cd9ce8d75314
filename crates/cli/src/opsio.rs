//! CLI glue for the operator plane: start/stop the `kmatch-ops` HTTP
//! server from `--ops-listen` (batch) or `--listen` (serve), and feed it
//! wave-completion telemetry.

use std::sync::Arc;

use kmatch_ops::{OpsConfig, OpsServer, OpsState, ServerConfig};

use crate::args::Args;

/// A live operator plane attached to a CLI command: the shared state the
/// solve loop feeds and the HTTP server scraping it.
pub struct OpsHandle {
    /// Shared telemetry state (registry, window, log, watchdog, ring).
    pub state: Arc<OpsState>,
    /// The clock the state was built on — shared with the sampler thread
    /// so profile timestamps and `/metrics` uptime agree on an origin.
    pub clock: Arc<kmatch_obs::StdClock>,
    server: OpsServer,
}

impl OpsHandle {
    /// Start the operator plane on `listen` with production defaults
    /// (`StdClock`, 2 HTTP workers). Announces the bound address on
    /// stderr — `--listen 127.0.0.1:0` picks an ephemeral port.
    pub fn start(listen: &str) -> Result<OpsHandle, String> {
        OpsHandle::start_with_config(listen, OpsConfig::default())
    }

    /// [`OpsHandle::start`] with explicit tunables (the serve front-end
    /// lowers the watchdog threshold for stall-injection smokes).
    pub fn start_with_config(listen: &str, cfg: OpsConfig) -> Result<OpsHandle, String> {
        let clock = Arc::new(kmatch_obs::StdClock::new());
        let state = Arc::new(OpsState::new(
            Arc::clone(&clock) as Arc<dyn kmatch_obs::Clock + Send + Sync>,
            cfg,
        ));
        let server = kmatch_ops::serve(Arc::clone(&state), listen, ServerConfig::default())
            .map_err(|e| format!("binding ops listener {listen}: {e}"))?;
        eprintln!("ops listening on http://{}/", server.local_addr());
        Ok(OpsHandle {
            state,
            clock,
            server,
        })
    }

    /// Start from `batch --ops-listen ADDR` if the flag is present.
    pub fn from_batch_args(args: &Args) -> Result<Option<OpsHandle>, String> {
        match args.flag("ops-listen") {
            Some(listen) => Ok(Some(OpsHandle::start(listen)?)),
            None => Ok(None),
        }
    }

    /// Record a completed solve wave: advance the watchdog's heartbeat
    /// lanes to `heartbeats` and tick the rolling window.
    pub fn note_wave(&self, n: usize, heartbeats: &[u64]) {
        self.state.note_wave(n as u64);
        self.state.tick(heartbeats);
    }

    /// [`OpsHandle::note_wave`] for probed workloads, publishing the
    /// wave's `report_json` to `/report`: heartbeats come from the
    /// attached forensic plane's probe generations (and a new stall
    /// writes a postmortem bundle when the plane is armed for it).
    pub fn note_wave_probed(&self, n: usize, report_json: String) {
        self.state.note_wave(n as u64);
        self.state.tick_probed();
        self.state.set_report(report_json);
    }

    /// Stop accepting and join the server threads.
    pub fn finish(self) {
        self.server.shutdown();
    }
}
