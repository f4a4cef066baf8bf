//! `jetsim-fleet` — thousands of Jetsons behind a network model and a
//! fleet router.
//!
//! The rest of the workspace simulates *one* device exhaustively. Real
//! edge deployments are fleets: many identical sites, a request router
//! in front, a lossy network between them, and sometimes a cloud tier
//! to absorb what the edge cannot. This crate composes the existing
//! single-device serving simulation into that shape:
//!
//! * [`FleetSpec`] — one per-site [`ScenarioSpec`] replicated across N
//!   edge sites (plus an optional cloud tier on a different device),
//!   one aggregate arrival stream per tenant class, a [`NetworkModel`]
//!   and a [`RouterPolicy`];
//! * [`RouterPolicy::route`] — the routing decision, made *before* any
//!   site runs as a function of the request and a periodic telemetry
//!   snapshot ([`FleetView`], refreshed every `telemetry_every`), which
//!   gives policies exactly the staleness a scraped-metrics control
//!   plane has;
//! * [`FleetReport`] — per-site [`jetsim_serve::ServeReport`]s plus the
//!   fleet-only metrics: end-to-end latency including network legs,
//!   client-side SLO attainment, offload fraction, cross-site traffic;
//! * the `jetsim-fleet` CLI binary.
//!
//! Sites couple only through pre-computed routing decisions: each site
//! replays one arrival timeline of delivery instants, with the uplink
//! leg already folded in, so the site sims run embarrassingly parallel
//! and the report is **byte-identical whatever the worker count** —
//! same spec and seed, same bytes.
//!
//! # Examples
//!
//! ```
//! use jetsim_fleet::{build_fleet_spec, RouterPolicy};
//! use jetsim_serve::ScenarioSpec;
//!
//! let sc: ScenarioSpec = r#"
//!     duration = "400ms"
//!     warmup = "100ms"
//!     [fleet]
//!     sites = 2
//!     router = "least_queue"
//!     [[tenants]]
//!     spec = "resnet50:int8:1:1"
//!     arrival = "poisson:120"
//! "#
//! .parse()?;
//! let report = build_fleet_spec(&sc)?.run()?;
//! assert_eq!(report.sites.len(), 2);
//! assert_eq!(report.router, RouterPolicy::LeastQueue.to_string());
//! assert!(report.served > 0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod report;
pub mod router;
pub mod scenario;
pub mod spec;

pub use network::{Direction, NetworkModel};
pub use report::{FleetReport, SiteReport};
pub use router::{FleetView, RouteRequest, RouterPolicy};
pub use scenario::{build_fleet_spec, build_network, network_overlay};
pub use spec::{FleetSpec, DEFAULT_TELEMETRY_EVERY};

// Re-export the scenario vocabulary so fleet callers need only this
// crate plus `jetsim_serve` for end-to-end experiments.
pub use jetsim::scenario::{FleetScenario, ScenarioSpec};
