//! The fleet specification and its plan → route → simulate pipeline.
//!
//! A [`FleetSpec`] replicates one per-site serving scenario across N
//! edge sites (plus an optional cloud tier on a different device),
//! splits one aggregate arrival stream per tenant class across the
//! sites through a [`RouterPolicy`], and hands each site's
//! otherwise-unchanged device simulation one arrival timeline per
//! class: the instants its requests are delivered, uplink delay
//! included.
//!
//! # Determinism
//!
//! The run is deterministic by construction, independent of worker
//! count:
//!
//! 1. **Emission** — each class's aggregate arrivals come from one
//!    seeded [`ArrivalStream`] materialized up front with
//!    `times_until(horizon)`; the per-class seed fold matches the
//!    single-device ingress exactly, so a one-site fleet emits the
//!    same timeline a standalone run draws.
//! 2. **Routing** — the planner walks the merged timeline once,
//!    sequentially; telemetry snapshots refresh on a fixed period and
//!    network jitter is a hash of `(seed, request, site, direction)`,
//!    not an RNG stream. Each routed request's delivery instant,
//!    `emitted + uplink` held behind the previous delivery of its
//!    `(site, class)` (a FIFO link: no request overtakes its
//!    predecessor), joins that site's arrival timeline for the class.
//! 3. **Simulation** — the edge and cloud scenarios are each resolved
//!    once. The sites are *independent* — each sees only its own
//!    delivery timelines — so each site's whole pipeline runs on the
//!    workspace worker pool ([`jetsim::pool`]): clone the tier's spec,
//!    set the routed timelines as its arrivals, build the `SimConfig`,
//!    simulate, and reduce the trace to the site's report and root
//!    completion instants. Config builds may run in any order: no
//!    simulated value reads the engine cache, which only shares built
//!    engines. Results come back in site-index order. A site whose
//!    simulation panics fails the run with an error naming the site.
//!
//! Same spec + seed ⇒ byte-identical [`FleetReport`] at any
//! `--workers`.

use jetsim::pool::{panic_message, run_isolated};
use jetsim::scenario::ScenarioSpec;
use jetsim_des::{
    gaps_from_times, splitmix64, ArrivalProcess, ArrivalStream, SimDuration, SimTime,
};
use jetsim_serve::metrics::{percentile_ms, roll_up_chains};
use jetsim_serve::{build_serve_spec, estimate_capacity, ServeReport, ServeSpec};
use jetsim_sim::serving::group_seed;
use jetsim_sim::{RunTrace, Simulation};

use crate::network::{Direction, NetworkModel};
use crate::report::{FleetReport, SiteReport};
use crate::router::{FleetView, RouteRequest, RouterPolicy};

/// Default telemetry refresh period (snapshot staleness bound).
pub const DEFAULT_TELEMETRY_EVERY: SimDuration = SimDuration::from_millis(100);

/// A fleet of device sims behind a network and a router.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    scenario: ScenarioSpec,
    sites: u32,
    cloud: bool,
    cloud_device: String,
    router: RouterPolicy,
    network: NetworkModel,
    telemetry_every: SimDuration,
    workers: Option<usize>,
}

/// One routing decision, in emission order.
#[derive(Debug, Clone, Copy)]
struct Decision {
    home: usize,
    site: usize,
    emitted: SimDuration,
    uplink: SimDuration,
    downlink: SimDuration,
}

/// What one site's worker keeps of its run. The site's `RunTrace` is
/// dropped inside the worker.
struct SiteOutcome {
    device: String,
    sim_events: u64,
    report: ServeReport,
    /// Per class, each root request's earliest chain completion, in
    /// arrival order (`None`: never served).
    root_completions: Vec<Vec<Option<SimTime>>>,
}

impl SiteOutcome {
    fn reduce(spec: &ServeSpec, trace: &RunTrace) -> Self {
        // One chain roll-up feeds both the site report and the earliest
        // completion per root.
        let chains = roll_up_chains(&trace.requests);
        let mut root_completions = vec![Vec::new(); spec.tenants().len()];
        for (r, chain) in trace.requests.iter().zip(&chains) {
            if r.is_root() {
                root_completions[r.group()].push(chain.completion);
            }
        }
        SiteOutcome {
            device: spec.platform().name().to_string(),
            sim_events: trace.sim_events,
            report: ServeReport::from_chains(
                trace,
                &chains,
                spec.slo_target(),
                spec.warmup_interval(),
                spec.resilience_policies().deadline,
            ),
            root_completions,
        }
    }
}

impl FleetSpec {
    /// A fleet replicating `scenario` on every edge site, with the
    /// defaults the `jetsim-fleet` CLI uses: 4 edge sites, no cloud
    /// tier, `round_robin` routing, the default [`NetworkModel`] and a
    /// 100 ms telemetry period.
    pub fn new(scenario: ScenarioSpec) -> Self {
        FleetSpec {
            scenario,
            sites: 4,
            cloud: false,
            cloud_device: "cloud-a40".to_string(),
            router: RouterPolicy::RoundRobin,
            network: NetworkModel::default(),
            telemetry_every: DEFAULT_TELEMETRY_EVERY,
            workers: None,
        }
    }

    /// Sets the number of edge sites (≥ 1).
    pub fn sites(mut self, sites: u32) -> Self {
        self.sites = sites;
        self
    }

    /// Attaches (or removes) the cloud tier.
    pub fn cloud(mut self, cloud: bool) -> Self {
        self.cloud = cloud;
        self
    }

    /// Device name for the cloud tier (default `cloud-a40`).
    pub fn cloud_device(mut self, device: impl Into<String>) -> Self {
        self.cloud_device = device.into();
        self
    }

    /// Selects the routing policy.
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Replaces the network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the telemetry refresh period (router snapshot staleness).
    pub fn telemetry_every(mut self, every: SimDuration) -> Self {
        self.telemetry_every = every;
        self
    }

    /// Caps the site-simulation worker threads (`None` = one per
    /// available core). Has **no effect on results** — only on wall
    /// time and memory: each worker drops its site's trace before it
    /// takes the next site, so the worker count also bounds how many
    /// site traces are alive at once.
    pub fn workers(mut self, workers: Option<usize>) -> Self {
        self.workers = workers;
        self
    }

    /// The per-site serving scenario.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.scenario
    }

    /// Total site count: edges plus the cloud tier when attached.
    pub fn total_sites(&self) -> usize {
        self.sites as usize + usize::from(self.cloud)
    }

    /// Runs the fleet and aggregates a [`FleetReport`].
    ///
    /// # Errors
    ///
    /// A message naming the problem: a scenario that does not resolve
    /// (see [`build_serve_spec`]), an unknown cloud device, zero sites,
    /// or a zero telemetry period.
    pub fn run(&self) -> Result<FleetReport, String> {
        if self.sites == 0 {
            return Err("fleet needs at least one edge site".to_string());
        }
        if self.telemetry_every.is_zero() {
            return Err("telemetry period must be non-zero".to_string());
        }
        let edge_sites = self.sites as usize;
        let total_sites = self.total_sites();
        let cloud_index = self.cloud.then_some(edge_sites);

        // Resolve the per-site specs once up front; every site clones
        // its tier's spec. Edge sites share one scenario; the cloud tier
        // swaps the device.
        let edge_spec = build_serve_spec(&self.scenario)?;
        let cloud_spec = if self.cloud {
            let mut sc = self.scenario.clone();
            sc.device = Some(self.cloud_device.clone());
            Some(build_serve_spec(&sc).map_err(|e| format!("cloud tier: {e}"))?)
        } else {
            None
        };

        let n_classes = edge_spec.tenants().len();
        let seed = edge_spec.master_seed();
        let warmup = edge_spec.warmup_interval();
        let horizon = edge_spec.horizon();
        let measured_secs = edge_spec.measured_duration().as_secs_f64();
        let slo = edge_spec.slo_target();

        // 1. Emission: materialize each class's aggregate arrival
        // timeline, then merge into one fleet timeline.
        let mut emissions: Vec<(SimDuration, usize, u64)> = Vec::new();
        for g in 0..n_classes {
            let process = edge_spec.tenants()[g].arrivals.clone();
            let mut stream = ArrivalStream::new(process, group_seed(seed, g));
            for (k, t) in stream.times_until(horizon).into_iter().enumerate() {
                emissions.push((t, g, k as u64));
            }
        }
        emissions.sort_by_key(|&(t, g, k)| (t, g, k));

        // 2. Routing: walk the timeline once through the policy, with a
        // drain-model planner behind periodic telemetry snapshots.
        let edge_caps = estimate_capacity(&edge_spec).map_err(|e| e.to_string())?;
        let cloud_caps = cloud_spec
            .as_ref()
            .map(|s| estimate_capacity(s).map_err(|e| format!("cloud tier: {e}")))
            .transpose()?;
        // The planner's backlog model and the view's tables are
        // site-major: entry `site * n_classes + class`, so the
        // per-emission drain is one pass over contiguous memory and a
        // snapshot is one copy.
        let mut est_rate: Vec<f64> = (0..total_sites)
            .flat_map(|s| {
                let caps = match (cloud_index, &cloud_caps) {
                    (Some(c), Some(caps)) if s == c => caps,
                    _ => &edge_caps,
                };
                caps.iter().map(|c| c.est_rate)
            })
            .collect();
        // Guard degenerate estimates so drain-time math stays finite.
        for r in &mut est_rate {
            if !r.is_finite() || *r <= 0.0 {
                *r = 1e-6;
            }
        }

        let mut view = FleetView {
            edge_sites,
            cloud: cloud_index,
            slo,
            cloud_round_trip: self.network.one_way(
                seed,
                u64::MAX,
                0,
                edge_sites,
                true,
                Direction::Uplink,
            ) + self.network.one_way(
                seed,
                u64::MAX,
                0,
                edge_sites,
                true,
                Direction::Downlink,
            ),
            snapshot_at: SimDuration::ZERO,
            outstanding: vec![0.0; total_sites * n_classes],
            est_rate,
        };
        let mut live = vec![0.0; total_sites * n_classes];
        let mut last = SimDuration::ZERO;
        let mut next_snapshot = self.telemetry_every;

        let mut decisions: Vec<Decision> = Vec::with_capacity(emissions.len());
        // Per (site, class): delivery instants, in emission order, plus
        // the decision index for report assembly.
        let mut site_times: Vec<Vec<Vec<SimDuration>>> =
            vec![vec![Vec::new(); n_classes]; total_sites];
        let mut site_decisions: Vec<Vec<Vec<usize>>> =
            vec![vec![Vec::new(); n_classes]; total_sites];

        for (id, &(t, class, _k)) in emissions.iter().enumerate() {
            let id = id as u64;
            // Drain the live backlog model up to the emission instant.
            let dt = (t - last).as_secs_f64();
            if dt > 0.0 {
                for (l, &r) in live.iter_mut().zip(&view.est_rate) {
                    *l = (*l - r * dt).max(0.0);
                }
            }
            last = t;
            // Refresh the router's snapshot on the telemetry period;
            // between refreshes it reads stale state on purpose.
            if t >= next_snapshot {
                view.outstanding.copy_from_slice(&live);
                view.snapshot_at = t;
                while next_snapshot <= t {
                    next_snapshot += self.telemetry_every;
                }
            }

            let home = (splitmix64(seed ^ 0x686F_6D65 ^ id) % edge_sites as u64) as usize;
            let req = RouteRequest {
                id,
                class,
                home,
                at: t,
            };
            let site = self.router.route(&req, &view).min(total_sites - 1);
            let site_is_cloud = cloud_index == Some(site);
            let uplink =
                self.network
                    .one_way(seed, id, home, site, site_is_cloud, Direction::Uplink);
            let downlink =
                self.network
                    .one_way(seed, id, home, site, site_is_cloud, Direction::Downlink);
            live[site * n_classes + class] += 1.0;
            push_delivery(&mut site_times[site][class], t, uplink);
            site_decisions[site][class].push(decisions.len());
            decisions.push(Decision {
                home,
                site,
                emitted: t,
                uplink,
                downlink,
            });
        }

        // 3. Simulation: each site's whole pipeline runs on the worker
        // pool — clone its tier's resolved spec, set the routed delivery
        // timelines as its arrivals, build the config, simulate, and
        // reduce the trace — so at most `workers` traces are alive at
        // once.
        let inputs: Vec<_> = site_times.into_iter().enumerate().collect();
        let outcomes: Vec<SiteOutcome> = run_isolated(inputs, self.workers, |(s, times)| {
            let mut spec = match &cloud_spec {
                Some(cloud) if cloud_index == Some(s) => cloud.clone(),
                _ => edge_spec.clone(),
            };
            for (g, times) in times.iter().enumerate() {
                spec.set_arrivals(g, ArrivalProcess::trace(gaps_from_times(times), false));
            }
            let config = spec.build_config().map_err(|e| e.to_string())?;
            let trace = Simulation::new(config).map_err(|e| e.to_string())?.run();
            Ok(SiteOutcome::reduce(&spec, &trace))
        })
        .into_iter()
        .enumerate()
        .map(|(s, result)| {
            result.unwrap_or_else(|payload| {
                Err(format!(
                    "site {s}: simulation panicked: {}",
                    panic_message(payload.as_ref())
                ))
            })
        })
        .collect::<Result<_, String>>()?;

        // 4. Aggregation: match each site's k-th root request of class
        // g with the k-th decision routed to (site, g) — arrival order
        // is FIFO on both sides — and judge end-to-end latency
        // (network legs included) at the client.
        let mut e2e: Vec<SimDuration> = Vec::new();
        let mut requests = 0usize;
        let mut served = 0usize;
        let mut within_slo = 0usize;
        let mut offloaded = 0usize;
        let mut non_home = 0usize;
        let mut traffic_kb = 0.0_f64;
        let mut network_total = SimDuration::ZERO;
        let mut sites_out = Vec::with_capacity(total_sites);
        for (s, (outcome, site_routed)) in outcomes.into_iter().zip(&site_decisions).enumerate() {
            let site_is_cloud = cloud_index == Some(s);
            let mut routed = 0usize;
            let classes = site_routed.iter().zip(&outcome.root_completions);
            for (g, (class_routed, roots)) in classes.enumerate() {
                debug_assert!(
                    roots.len() <= class_routed.len(),
                    "site {s} class {g}: {} root requests but only {} routed decisions",
                    roots.len(),
                    class_routed.len()
                );
                routed += class_routed.len();
                for (k, &d_index) in class_routed.iter().enumerate() {
                    let d = decisions[d_index];
                    traffic_kb += self.network.traffic_kb(d.home, d.site, site_is_cloud);
                    if d.emitted < warmup {
                        continue;
                    }
                    requests += 1;
                    if site_is_cloud {
                        offloaded += 1;
                    }
                    if d.site != d.home || site_is_cloud {
                        non_home += 1;
                    }
                    // A root can be missing when the uplink pushed its
                    // delivery past the horizon: emitted, never served.
                    let done = roots.get(k).copied().flatten();
                    if let Some(at) = done {
                        let latency = (at - SimTime::ZERO) - d.emitted + d.downlink;
                        served += 1;
                        network_total += d.uplink + d.downlink;
                        if latency <= slo {
                            within_slo += 1;
                        }
                        e2e.push(latency);
                    }
                }
            }
            sites_out.push(SiteReport {
                site: s,
                cloud: site_is_cloud,
                device: outcome.device,
                routed,
                sim_events: outcome.sim_events,
                report: outcome.report,
            });
        }
        e2e.sort_unstable();
        let sim_events_total = sites_out.iter().map(|site| site.sim_events).sum();
        Ok(FleetReport {
            router: self.router.to_string(),
            edge_sites,
            cloud: self.cloud,
            network: self.network.to_string(),
            measured_secs,
            slo_ms: slo.as_millis_f64(),
            requests,
            served,
            p50_ms: percentile_ms(&e2e, 50.0),
            p95_ms: percentile_ms(&e2e, 95.0),
            p99_ms: percentile_ms(&e2e, 99.0),
            goodput_qps: if measured_secs > 0.0 {
                within_slo as f64 / measured_secs
            } else {
                0.0
            },
            slo_attainment: if requests > 0 {
                within_slo as f64 / requests as f64
            } else {
                1.0
            },
            offload_fraction: if requests > 0 {
                offloaded as f64 / requests as f64
            } else {
                0.0
            },
            non_home_fraction: if requests > 0 {
                non_home as f64 / requests as f64
            } else {
                0.0
            },
            cross_site_traffic_mb: traffic_kb * 1024.0 / 1e6,
            mean_network_ms: if served > 0 {
                network_total.as_millis_f64() / served as f64
            } else {
                0.0
            },
            sim_events_total,
            sites: sites_out,
        })
    }
}

/// Appends a routed request's delivery instant to its `(site, class)`
/// timeline: `emitted + uplink`, held back behind the previous delivery
/// so no request overtakes its predecessor on the link (FIFO).
fn push_delivery(times: &mut Vec<SimDuration>, emitted: SimDuration, uplink: SimDuration) {
    let at = emitted + uplink;
    times.push(times.last().map_or(at, |&prev| at.max(prev)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The FIFO-link rule: a request lands `uplink` after its
        /// emission unless that would overtake its predecessor, and zero
        /// uplinks replay the emission timeline exactly.
        #[test]
        fn deliveries_fold_uplink_without_overtaking(
            steps in prop::collection::vec((0u64..5_000_000, 0u64..50_000_000), 0..64),
        ) {
            let (mut emitted, mut delivered, mut undelayed) = (SimDuration::ZERO, vec![], vec![]);
            for (gap, uplink) in steps {
                emitted += SimDuration::from_nanos(gap);
                let uplink = SimDuration::from_nanos(uplink);
                let previous = delivered.last().copied().unwrap_or(SimDuration::ZERO);
                push_delivery(&mut delivered, emitted, uplink);
                push_delivery(&mut undelayed, emitted, SimDuration::ZERO);
                let (at, due) = (delivered[delivered.len() - 1], emitted + uplink);
                prop_assert!(at >= due && at >= previous, "{at:?} vs {due:?}, {previous:?}");
                if due >= previous {
                    prop_assert_eq!(at, due);
                }
                prop_assert_eq!(undelayed[undelayed.len() - 1], emitted);
            }
        }
    }
}
