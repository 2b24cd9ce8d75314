//! CLI glue for the operator plane: start/stop the `kmatch-ops` HTTP
//! server from `serve --listen`, and feed it wave-completion telemetry.

use std::sync::Arc;

use kmatch_ops::{OpsConfig, OpsServer, OpsState, ServerConfig};

/// The live operator plane of `kmatch serve`: the shared state the solve
/// loop feeds and the HTTP server scraping it.
pub struct OpsHandle {
    /// Shared telemetry state (registry, window, log, watchdog, ring).
    pub state: Arc<OpsState>,
    /// The clock the state was built on — shared with the sampler thread
    /// so profile timestamps and `/metrics` uptime agree on an origin.
    pub clock: Arc<kmatch_obs::StdClock>,
    server: OpsServer,
}

impl OpsHandle {
    /// Start the operator plane on `listen` with the tunables `cfg`
    /// (`StdClock`, 2 HTTP workers). Announces the bound address on
    /// stderr — `--listen 127.0.0.1:0` picks an ephemeral port.
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

    /// Record a completed solve wave of size `n` and publish its
    /// `report_json` to `/report`. The watchdog's heartbeats come from the
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
