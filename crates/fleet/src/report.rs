//! Fleet-level result aggregation.
//!
//! A [`FleetReport`] nests one full per-site [`ServeReport`] per device
//! sim (so nothing the single-device tooling measures is lost) and adds
//! the metrics that only exist at fleet scope: end-to-end latency
//! *including network transfers*, SLO attainment judged at the client,
//! offload and spill fractions, and cross-site traffic volume.
//!
//! The report derives `Serialize` all the way down and every field is
//! computed from routing decisions plus what each site's worker kept of
//! its trace, assembled in site-index order — which is what makes
//! `--json` output byte-identical whatever the worker count.

use std::fmt;

use jetsim_serve::ServeReport;
use serde::Serialize;

/// One site's slice of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SiteReport {
    /// Site index (edges first, cloud last when present).
    pub site: usize,
    /// Whether this is the cloud tier.
    pub cloud: bool,
    /// Device the site simulates.
    pub device: String,
    /// Requests the router sent here (whole run, warmup included).
    pub routed: usize,
    /// DES events the site's simulation processed.
    pub sim_events: u64,
    /// The site's own serving report (device-local latency, no network).
    pub report: ServeReport,
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Routing policy name.
    pub router: String,
    /// Number of edge sites.
    pub edge_sites: usize,
    /// Whether a cloud tier was attached.
    pub cloud: bool,
    /// Network model the run used (the `--network` grammar).
    pub network: String,
    /// Measured-window length, seconds (warmup excluded).
    pub measured_secs: f64,
    /// The SLO end-to-end latency is judged against, ms.
    pub slo_ms: f64,
    /// Logical requests emitted in the measured window.
    pub requests: usize,
    /// Of those, chains that completed (anywhere in the fleet).
    pub served: usize,
    /// End-to-end latency percentiles over served requests, ms —
    /// emission to completion plus both network legs.
    pub p50_ms: f64,
    /// 95th percentile end-to-end latency, ms.
    pub p95_ms: f64,
    /// 99th percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Served requests whose end-to-end latency met the SLO, per
    /// measured second.
    pub goodput_qps: f64,
    /// Fraction of in-window requests that met the SLO end to end
    /// (drops and unfinished requests count as misses).
    pub slo_attainment: f64,
    /// Fraction of in-window requests routed to the cloud tier.
    pub offload_fraction: f64,
    /// Fraction of in-window requests served away from their home site
    /// (cloud included).
    pub non_home_fraction: f64,
    /// Total payload bytes moved between sites over the whole run, MB
    /// (request upload + response download for every non-home request).
    pub cross_site_traffic_mb: f64,
    /// Mean network time (uplink + downlink) over served in-window
    /// requests, ms.
    pub mean_network_ms: f64,
    /// DES events processed across all sites.
    pub sim_events_total: u64,
    /// Per-site detail, in site-index order.
    pub sites: Vec<SiteReport>,
}

impl FleetReport {
    /// Serializes the report as pretty-printed JSON (the `--json`
    /// output; byte-identical for a given spec and seed).
    ///
    /// # Panics
    ///
    /// Never — the report contains no non-serializable values.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FleetReport serializes")
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} edge site(s){} | router {} | {:.1}s measured | SLO {:.1} ms",
            self.edge_sites,
            if self.cloud { " + cloud" } else { "" },
            self.router,
            self.measured_secs,
            self.slo_ms,
        )?;
        writeln!(f, "network: {}", self.network)?;
        writeln!(
            f,
            "requests {} | served {} | p50/p95/p99 {:.2}/{:.2}/{:.2} ms | goodput {:.1} rps | attainment {:.1}%",
            self.requests,
            self.served,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.goodput_qps,
            self.slo_attainment * 100.0,
        )?;
        writeln!(
            f,
            "offload {:.1}% | non-home {:.1}% | cross-site {:.2} MB | mean network {:.2} ms | {} sim events",
            self.offload_fraction * 100.0,
            self.non_home_fraction * 100.0,
            self.cross_site_traffic_mb,
            self.mean_network_ms,
            self.sim_events_total,
        )?;
        writeln!(
            f,
            "{:>4}  {:<12} {:>8} {:>10}  per-site p99 (device-local)",
            "site", "device", "routed", "events"
        )?;
        for s in &self.sites {
            let p99 = s
                .report
                .groups
                .iter()
                .map(|g| g.p99_ms)
                .fold(0.0_f64, f64::max);
            writeln!(
                f,
                "{:>4}{} {:<12} {:>8} {:>10}  {:.2} ms",
                s.site,
                if s.cloud { "c" } else { " " },
                s.device,
                s.routed,
                s.sim_events,
                p99,
            )?;
        }
        Ok(())
    }
}
