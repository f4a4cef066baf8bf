//! The fleet network model: deterministic per-request transfer delays.
//!
//! A request that the router sends anywhere other than its home site
//! pays for the trip: a base one-way link latency, a
//! bandwidth-proportional serialization cost for the request payload,
//! and a deterministic jitter draw. The response pays the same on the
//! way back (with the response payload size). Routing to the cloud tier
//! adds the cloud RTT share on top of the edge link. Traffic served at
//! its home site never touches the network and costs nothing.
//!
//! Jitter is a pure function of `(seed, request id, site, direction)` —
//! a splitmix64 hash mapped uniformly onto `[0, jitter]` — so delays do
//! not depend on the order requests are routed in and the whole fleet
//! run replays byte for byte from its seed.

use std::fmt;
use std::str::FromStr;

use jetsim::scenario::parse_duration;
use jetsim_des::{splitmix64, SimDuration};

/// Per-link delay parameters for the fleet interconnect.
///
/// Parsed from / printed as a `key=value` list (the `--network` CLI
/// grammar): `base=5ms,jitter=0s,bw=100,req_kb=128,resp_kb=4,cloud_rtt=30ms`.
/// Every key is optional and defaults to the values above.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// One-way latency of an edge-to-edge link.
    pub base_latency: SimDuration,
    /// Upper bound of the uniform per-transfer jitter draw.
    pub jitter: SimDuration,
    /// Link bandwidth in megabits per second (decimal: 1 Mbps = 1e6
    /// bits/s).
    pub bandwidth_mbps: f64,
    /// Request payload size in KiB (e.g. a JPEG frame).
    pub request_kb: f64,
    /// Response payload size in KiB (e.g. a label vector).
    pub response_kb: f64,
    /// Extra one-way latency for reaching the cloud tier, on top of the
    /// edge link.
    pub cloud_rtt: SimDuration,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            base_latency: SimDuration::from_millis(5),
            jitter: SimDuration::ZERO,
            bandwidth_mbps: 100.0,
            request_kb: 128.0,
            response_kb: 4.0,
            cloud_rtt: SimDuration::from_millis(30),
        }
    }
}

/// Direction of a transfer, salted into the jitter hash so uplink and
/// downlink of the same request draw independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client's home site towards the serving site.
    Uplink,
    /// Serving site back to the client's home site.
    Downlink,
}

impl NetworkModel {
    /// Time to push `kb` KiB through the link, ignoring latency.
    pub fn transfer_time(&self, kb: f64) -> SimDuration {
        if self.bandwidth_mbps <= 0.0 || kb <= 0.0 {
            return SimDuration::ZERO;
        }
        let bits = kb * 1024.0 * 8.0;
        SimDuration::from_secs_f64(bits / (self.bandwidth_mbps * 1e6))
    }

    /// Deterministic jitter draw in `[0, jitter]` for one transfer.
    ///
    /// Order-independent: the draw is a hash of the identifying tuple,
    /// not a stateful RNG, so re-routing other requests never perturbs
    /// this one's delay.
    pub fn jitter_for(&self, seed: u64, request: u64, site: usize, dir: Direction) -> SimDuration {
        if self.jitter.is_zero() {
            return SimDuration::ZERO;
        }
        let salt = match dir {
            Direction::Uplink => 0x7570_u64,
            Direction::Downlink => 0x646E_u64,
        };
        let h = splitmix64(
            seed ^ splitmix64(request ^ salt) ^ splitmix64((site as u64).wrapping_add(salt << 16)),
        );
        // Map onto [0, jitter] inclusive via modulo over nanoseconds + 1.
        let span = self.jitter.as_nanos() + 1;
        SimDuration::from_nanos(h % span)
    }

    /// One-way delay for `request`'s transfer from its home edge site
    /// to serving site `site`.
    ///
    /// Zero when the request is served at home (`site == home` and not
    /// cloud); otherwise base latency + payload serialization +
    /// deterministic jitter, plus [`NetworkModel::cloud_rtt`] when the
    /// serving site is the cloud tier.
    pub fn one_way(
        &self,
        seed: u64,
        request: u64,
        home: usize,
        site: usize,
        site_is_cloud: bool,
        dir: Direction,
    ) -> SimDuration {
        if site == home && !site_is_cloud {
            return SimDuration::ZERO;
        }
        let payload = match dir {
            Direction::Uplink => self.request_kb,
            Direction::Downlink => self.response_kb,
        };
        let mut delay = self.base_latency + self.transfer_time(payload);
        if site_is_cloud {
            delay += self.cloud_rtt;
        }
        delay + self.jitter_for(seed, request, site, dir)
    }

    /// KiB moved over the network for one request served at `site`
    /// (zero at home): request payload up, response payload down.
    pub fn traffic_kb(&self, home: usize, site: usize, site_is_cloud: bool) -> f64 {
        if site == home && !site_is_cloud {
            0.0
        } else {
            self.request_kb + self.response_kb
        }
    }
}

pub(crate) fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0s".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{}us", ns.div_ceil(1000))
    }
}

impl fmt::Display for NetworkModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "base={},jitter={},bw={},req_kb={},resp_kb={},cloud_rtt={}",
            fmt_duration(self.base_latency),
            fmt_duration(self.jitter),
            self.bandwidth_mbps,
            self.request_kb,
            self.response_kb,
            fmt_duration(self.cloud_rtt),
        )
    }
}

impl FromStr for NetworkModel {
    type Err = String;

    /// Parses the `--network` grammar: comma-separated `key=value`
    /// pairs over the default model. Keys: `base`, `jitter`,
    /// `cloud_rtt` (duration grammar); `bw` (Mbps), `req_kb`,
    /// `resp_kb` (KiB).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut model = NetworkModel::default();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad network term `{pair}`: want key=value"))?;
            let bad_num = |v: &str| format!("bad network `{key}` value `{v}`: want a number");
            match key {
                "base" => model.base_latency = parse_duration(value)?,
                "jitter" => model.jitter = parse_duration(value)?,
                "cloud_rtt" => model.cloud_rtt = parse_duration(value)?,
                "bw" => {
                    let bw: f64 = value.parse().map_err(|_| bad_num(value))?;
                    if !bw.is_finite() || bw <= 0.0 {
                        return Err(format!("network bw `{value}` must be positive"));
                    }
                    model.bandwidth_mbps = bw;
                }
                "req_kb" => {
                    let kb: f64 = value.parse().map_err(|_| bad_num(value))?;
                    if !kb.is_finite() || kb < 0.0 {
                        return Err(format!("network req_kb `{value}` must be non-negative"));
                    }
                    model.request_kb = kb;
                }
                "resp_kb" => {
                    let kb: f64 = value.parse().map_err(|_| bad_num(value))?;
                    if !kb.is_finite() || kb < 0.0 {
                        return Err(format!("network resp_kb `{value}` must be non-negative"));
                    }
                    model.response_kb = kb;
                }
                other => {
                    return Err(format!(
                        "unknown network key `{other}`: want base, jitter, bw, req_kb, resp_kb or cloud_rtt"
                    ))
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_traffic_is_free() {
        let net = NetworkModel::default();
        assert_eq!(
            net.one_way(1, 2, 3, 3, false, Direction::Uplink),
            SimDuration::ZERO
        );
        assert_eq!(net.traffic_kb(3, 3, false), 0.0);
    }

    #[test]
    fn cloud_pays_rtt_on_top_of_link() {
        let net = NetworkModel::default();
        let edge = net.one_way(1, 2, 0, 1, false, Direction::Uplink);
        let cloud = net.one_way(1, 2, 0, 1, true, Direction::Uplink);
        assert_eq!(cloud - edge, net.cloud_rtt);
    }

    #[test]
    fn transfer_time_scales_with_payload_and_bandwidth() {
        let net = NetworkModel {
            bandwidth_mbps: 8.0,
            ..NetworkModel::default()
        };
        // 1 KiB at 8 Mbps = 8192 bits / 8e6 bits/s = 1.024 ms.
        assert_eq!(net.transfer_time(1.0), SimDuration::from_micros(1024));
        assert_eq!(net.transfer_time(2.0), SimDuration::from_micros(2048));
    }

    #[test]
    fn jitter_is_deterministic_order_independent_and_bounded() {
        let net = NetworkModel {
            jitter: SimDuration::from_millis(2),
            ..NetworkModel::default()
        };
        let a = net.jitter_for(7, 42, 1, Direction::Uplink);
        let b = net.jitter_for(7, 42, 1, Direction::Uplink);
        assert_eq!(a, b);
        assert!(a <= net.jitter);
        // Different direction / request / site decorrelate.
        let c = net.jitter_for(7, 42, 1, Direction::Downlink);
        let d = net.jitter_for(7, 43, 1, Direction::Uplink);
        assert!(a != c || a != d);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let net = NetworkModel {
            base_latency: SimDuration::from_millis(3),
            jitter: SimDuration::from_micros(1500),
            bandwidth_mbps: 250.0,
            request_kb: 64.0,
            response_kb: 2.0,
            cloud_rtt: SimDuration::from_millis(45),
        };
        let parsed: NetworkModel = net.to_string().parse().unwrap();
        assert_eq!(parsed, net);
        // Partial spec keeps defaults elsewhere.
        let partial: NetworkModel = "bw=10,base=1ms".parse().unwrap();
        assert_eq!(partial.bandwidth_mbps, 10.0);
        assert_eq!(partial.base_latency, SimDuration::from_millis(1));
        assert_eq!(partial.response_kb, NetworkModel::default().response_kb);
        assert!("bw=0".parse::<NetworkModel>().is_err());
        assert!("warp=9".parse::<NetworkModel>().is_err());
    }
}
