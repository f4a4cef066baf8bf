//! Fleet routing: where does each request run?
//!
//! The fleet planner walks the aggregate arrival timeline once, in
//! emission order, asking [`RouterPolicy::route`] to place every
//! request given a [`FleetView`] — a *telemetry snapshot* of per-site
//! load that only refreshes every `telemetry_every`, so policies see
//! exactly the staleness a real periodic metrics pipeline would
//! introduce. A decision is a function of the request and the view
//! alone. Routing happens before any site simulation runs, which is
//! what makes the whole fleet deterministic and embarrassingly
//! parallel: the sites couple only through these pre-computed
//! decisions.
//!
//! Four built-in policies ([`RouterPolicy`]):
//!
//! * `round_robin` — cycle the edge sites by request id, blind to load;
//! * `least_queue` — send to the site (cloud included, when present)
//!   with the smallest estimated drain time in the last snapshot;
//! * `locality` — serve at the request's home site unless its estimated
//!   wait crosses a pressure threshold, then spill to the least-loaded
//!   other edge site;
//! * `offload` — edge-first: serve at home unless the estimated wait
//!   plus the cloud round trip says the SLO is at risk, then escalate
//!   to the cloud tier (or the least-loaded edge when no cloud exists).

use std::fmt;
use std::str::FromStr;

use jetsim_des::SimDuration;

/// One logical request as the router sees it, before any site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Fleet-wide request identifier (emission order, 0-based).
    pub id: u64,
    /// Tenant class (index into the scenario's tenant list).
    pub class: usize,
    /// The edge site the request originates at.
    pub home: usize,
    /// Emission time on the aggregate arrival clock.
    pub at: SimDuration,
}

/// A telemetry snapshot of fleet load, refreshed every
/// `telemetry_every` by the planner.
///
/// Both per-site tables are site-major, one entry per `(site, class)` at
/// index `site * classes + class`, where `classes` is the table length
/// over [`FleetView::sites`]. `outstanding` is the estimated number
/// of requests routed to `site` for `class` and not yet drained, *as of
/// [`FleetView::snapshot_at`]* — between refreshes every policy reads
/// the same stale numbers, the way a scraped-metrics control plane
/// does. `est_rate` is the static per-site service-rate prior from
/// [`jetsim_serve::estimate_capacity`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Number of edge sites (`0..edge_sites` are valid edge indices).
    pub edge_sites: usize,
    /// Site index of the cloud tier, when the fleet has one.
    pub cloud: Option<usize>,
    /// The deployment's latency SLO.
    pub slo: SimDuration,
    /// Extra round-trip a cloud detour costs (uplink + downlink base,
    /// used by deadline-risk policies).
    pub cloud_round_trip: SimDuration,
    /// When the snapshot was taken.
    pub snapshot_at: SimDuration,
    /// Estimated un-drained requests per `(site, class)` at
    /// `snapshot_at`, site-major.
    pub outstanding: Vec<f64>,
    /// Estimated service rate (requests/s) per `(site, class)`,
    /// site-major.
    pub est_rate: Vec<f64>,
}

impl FleetView {
    /// Total number of sites (edges plus cloud).
    pub fn sites(&self) -> usize {
        self.edge_sites + usize::from(self.cloud.is_some())
    }

    /// Estimated seconds for `site` to drain its snapshot backlog:
    /// the sum over classes of `outstanding / est_rate`.
    pub fn est_wait_secs(&self, site: usize) -> f64 {
        let classes = self.outstanding.len() / self.sites();
        let row = site * classes..(site + 1) * classes;
        self.outstanding[row.clone()]
            .iter()
            .zip(&self.est_rate[row])
            .map(|(&q, &r)| if r > 0.0 { q / r } else { q * 1e6 })
            .sum()
    }

    /// The edge site with the smallest estimated drain time
    /// (lowest index wins ties — deterministic).
    pub fn least_loaded_edge(&self) -> usize {
        (0..self.edge_sites)
            .min_by(|&a, &b| {
                self.est_wait_secs(a)
                    .partial_cmp(&self.est_wait_secs(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0)
    }
}

/// The built-in policy set, selected by the `--router` flag / scenario
/// `router` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Cycle through edge sites, ignoring load and locality.
    #[default]
    RoundRobin,
    /// Lowest estimated drain time across all sites, from the last
    /// telemetry snapshot.
    LeastQueue,
    /// Home site first; spill to the least-loaded other edge when the
    /// home backlog crosses the pressure threshold.
    Locality,
    /// Home site first; escalate to the cloud tier when the estimated
    /// wait puts the SLO deadline at risk.
    Offload,
}

impl RouterPolicy {
    /// Places `req` on a site index in `0..view.sites()`.
    pub fn route(self, req: &RouteRequest, view: &FleetView) -> usize {
        // Spill to the least-loaded edge only when it actually looks
        // better than home.
        let spill = || {
            let edge = view.least_loaded_edge();
            if view.est_wait_secs(edge) < view.est_wait_secs(req.home) {
                edge
            } else {
                req.home
            }
        };
        match self {
            RouterPolicy::RoundRobin => (req.id % view.edge_sites.max(1) as u64) as usize,
            RouterPolicy::LeastQueue => (0..view.sites())
                .min_by(|&a, &b| {
                    view.est_wait_secs(a)
                        .partial_cmp(&view.est_wait_secs(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0),
            RouterPolicy::Locality => {
                let threshold = DEFAULT_PRESSURE * view.slo.as_secs_f64();
                if view.est_wait_secs(req.home) <= threshold || view.edge_sites <= 1 {
                    return req.home;
                }
                spill()
            }
            RouterPolicy::Offload => {
                let budget = DEFAULT_RISK * view.slo.as_secs_f64();
                if view.est_wait_secs(req.home) <= budget {
                    return req.home;
                }
                match view.cloud {
                    // Escalate only when the detour itself fits the SLO.
                    Some(cloud) if view.cloud_round_trip.as_secs_f64() < view.slo.as_secs_f64() => {
                        cloud
                    }
                    _ => spill(),
                }
            }
        }
    }

    /// All built-in policies, in comparison-sweep order.
    pub fn all() -> [RouterPolicy; 4] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastQueue,
            RouterPolicy::Locality,
            RouterPolicy::Offload,
        ]
    }
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouterPolicy::RoundRobin => "round_robin",
            RouterPolicy::LeastQueue => "least_queue",
            RouterPolicy::Locality => "locality",
            RouterPolicy::Offload => "offload",
        })
    }
}

impl FromStr for RouterPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round_robin" => Ok(RouterPolicy::RoundRobin),
            "least_queue" | "lq" => Ok(RouterPolicy::LeastQueue),
            "locality" => Ok(RouterPolicy::Locality),
            "offload" => Ok(RouterPolicy::Offload),
            other => Err(format!(
                "bad router `{other}`: want round_robin, least_queue, locality or offload"
            )),
        }
    }
}

/// Home-backlog threshold (× SLO) above which `locality` spills.
const DEFAULT_PRESSURE: f64 = 0.5;
/// Deadline-risk threshold (× SLO) above which `offload` escalates.
const DEFAULT_RISK: f64 = 0.5;

#[cfg(test)]
mod tests {
    use super::*;

    fn view(edges: usize, cloud: bool, outstanding: Vec<Vec<f64>>) -> FleetView {
        let sites = outstanding.len();
        let classes = outstanding[0].len();
        FleetView {
            edge_sites: edges,
            cloud: cloud.then_some(sites - 1),
            slo: SimDuration::from_millis(50),
            cloud_round_trip: SimDuration::from_millis(10),
            snapshot_at: SimDuration::ZERO,
            est_rate: vec![100.0; sites * classes],
            outstanding: outstanding.concat(),
        }
    }

    fn req(id: u64, home: usize) -> RouteRequest {
        RouteRequest {
            id,
            class: 0,
            home,
            at: SimDuration::ZERO,
        }
    }

    #[test]
    fn round_robin_cycles_edges_only() {
        let v = view(3, true, vec![vec![0.0]; 4]);
        let r = RouterPolicy::RoundRobin;
        let sites: Vec<usize> = (0..6).map(|i| r.route(&req(i, 0), &v)).collect();
        assert_eq!(sites, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_queue_follows_snapshot_minimum() {
        let v = view(3, true, vec![vec![9.0], vec![2.0], vec![5.0], vec![3.0]]);
        let r = RouterPolicy::LeastQueue;
        assert_eq!(r.route(&req(0, 0), &v), 1);
        // Cloud (site 3) wins when it is the least loaded.
        let v = view(3, true, vec![vec![9.0], vec![8.0], vec![5.0], vec![1.0]]);
        assert_eq!(r.route(&req(1, 0), &v), 3);
    }

    #[test]
    fn locality_stays_home_until_pressure_then_spills_to_edge() {
        // est_rate 100/s, SLO 50 ms, pressure 0.5 → threshold 2.5 requests.
        let calm = view(3, false, vec![vec![2.0], vec![0.0], vec![1.0]]);
        let r = RouterPolicy::Locality;
        assert_eq!(r.route(&req(0, 0), &calm), 0);
        let hot = view(3, false, vec![vec![40.0], vec![0.0], vec![1.0]]);
        assert_eq!(r.route(&req(1, 0), &hot), 1);
        // Everyone equally hot: stay home rather than bounce around.
        let all_hot = view(3, false, vec![vec![40.0], vec![40.0], vec![40.0]]);
        assert_eq!(r.route(&req(2, 0), &all_hot), 0);
    }

    #[test]
    fn offload_escalates_to_cloud_under_deadline_risk() {
        let calm = view(2, true, vec![vec![1.0], vec![0.0], vec![0.0]]);
        let r = RouterPolicy::Offload;
        assert_eq!(r.route(&req(0, 0), &calm), 0);
        let hot = view(2, true, vec![vec![40.0], vec![0.0], vec![0.0]]);
        assert_eq!(r.route(&req(1, 0), &hot), 2, "hot home goes to cloud");
        // Without a cloud tier it degrades to edge spill.
        let hot_no_cloud = view(2, false, vec![vec![40.0], vec![0.0]]);
        assert_eq!(r.route(&req(2, 0), &hot_no_cloud), 1);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in RouterPolicy::all() {
            assert_eq!(p.to_string().parse::<RouterPolicy>().unwrap(), p);
        }
        assert_eq!(
            "rr".parse::<RouterPolicy>().unwrap(),
            RouterPolicy::RoundRobin
        );
        assert!("random".parse::<RouterPolicy>().is_err());
    }
}
