//! What every workload provides, and the per-layer metrics derived from
//! one traced pass.

use std::collections::BTreeMap;

use crate::pinned::Print;
use crate::spans::{Profile, Tracer};

/// One pass's outputs: fingerprints, failed checks, and the layer values
/// read from the program's public outputs.
#[derive(Default)]
pub struct PassOut {
    pub prints: Vec<Print>,
    /// Output checks that failed in the pass (conformance, completion).
    pub problems: Vec<String>,
    /// Deterministic work counts; must repeat exactly from pass to pass.
    pub counts: BTreeMap<&'static str, u64>,
    /// Host-time values the program measures itself (nanoseconds).
    pub host_ns: BTreeMap<&'static str, u64>,
}

impl PassOut {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn max_count(&mut self, name: &'static str, n: u64) {
        let v = self.counts.entry(name).or_default();
        *v = (*v).max(n);
    }

    pub fn host(&mut self, name: &'static str, ns: u64) {
        *self.host_ns.entry(name).or_default() += ns;
    }
}

pub trait Workload {
    type Inputs;
    /// Generate the workload's inputs from the seed.
    fn inputs(seed: u64) -> Self::Inputs;
    /// Run the workload's fixed work once, with spans when `t` is enabled.
    fn pass(inputs: &Self::Inputs, t: &mut Tracer) -> PassOut;
    /// One line saying what the generated inputs are.
    fn describe(inputs: &Self::Inputs) -> String;
    /// Time, in seconds, to generate the batch arrival stream on its own
    /// (0 where the workload has no batch layer).
    fn arrivals_s(inputs: &Self::Inputs) -> f64;
}

/// The seed whose inputs every other seed's are matched to: the seed of
/// the repository's pinned acceptance runs.
pub const REFERENCE_SEED: u64 = 2008;

/// The first seed of a hash chain started at `seed` whose inputs' cost
/// estimate `measure` is within `band` (relative) of [`REFERENCE_SEED`]'s.
/// `seed` itself when it qualifies, so the reference seed maps to itself.
///
/// Workloads whose cost follows a property the seed draws (the heavy-job
/// share, a catalog's node-seconds per job) use this to keep that property
/// fixed while the seed still picks the concrete inputs.
pub fn matching_seed(seed: u64, band: f64, measure: impl Fn(u64) -> f64) -> u64 {
    let target = measure(REFERENCE_SEED);
    let mut s = seed;
    for _ in 0..100_000 {
        if (measure(s) / target - 1.0).abs() <= band {
            return s;
        }
        s = next_seed(s);
    }
    // INVARIANT: callers pick bands that a few percent of seeds meet; 10^5
    // misses in a row would mean the generator changed shape entirely.
    panic!("no seed within {band} of the reference inputs' cost, chain from {seed}")
}

/// SplitMix64's output function: the next seed of the chain.
fn next_seed(s: u64) -> u64 {
    let mut z = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Top-level spans the workloads open, and the per-layer metric that
/// reports each one's self time.
pub const TOP_SPANS: [(&str, &str); 10] = [
    ("schedsim.build", "schedsim.build_s"),
    ("workloads.spawn", "workloads.spawn_s"),
    ("schedsim.run", "schedsim.run_s"),
    ("tracefmt.timeline", "tracefmt.timeline_s"),
    ("simverify.conformance", "simverify.conformance_s"),
    ("batchsim.run", "batchsim.engine_s"),
    ("batchsim.render", "batchsim.render_s"),
    ("ckpt.decode", "ckpt.decode_s"),
    ("ckpt.resume", "ckpt.resume_s"),
    ("check", "check_s"),
];

/// Per-layer values of one traced pass: counts as read, times from the
/// span profile.
pub fn layer_values(out: &PassOut, prof: &Profile) -> Result<BTreeMap<&'static str, f64>, String> {
    if let Some(name) = prof
        .top_ns
        .keys()
        .find(|n| !TOP_SPANS.iter().any(|(s, _)| s == *n))
    {
        return Err(format!("top-level span {name} has no self-time metric"));
    }
    let mut v: BTreeMap<&'static str, f64> =
        out.counts.iter().map(|(k, n)| (*k, *n as f64)).collect();
    for (span, metric) in TOP_SPANS {
        v.insert(metric, prof.self_s(span));
    }
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    let count = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    v.insert(
        "schedsim.ns_per_event",
        per(
            prof.self_s("schedsim.run") * 1e9,
            count(&v, "simcore.events.processed"),
        ),
    );
    v.insert("schedsim.balancer.s", prof.total_s("schedsim.balancer"));
    v.insert(
        "schedsim.pick_ns",
        per(
            out.host_ns
                .get("schedsim.pick_total_ns")
                .copied()
                .unwrap_or(0) as f64,
            count(&v, "schedsim.picks"),
        ),
    );
    v.insert("cluster.node.s", prof.total_s("cluster.node"));
    v.insert("batchsim.run_s", prof.total_s("batchsim.run"));
    v.insert(
        "batchsim.ns_per_trace_event",
        per(
            prof.self_s("batchsim.run") * 1e9,
            count(&v, "batchsim.trace_events"),
        ),
    );
    v.insert("ckpt.encode_s", prof.total_s("ckpt.encode"));
    v.insert("trace.unspanned_s", prof.unspanned_ns as f64 / 1e9);
    Ok(v)
}

/// FNV-1a over the `Debug` rendering of each record plus a newline,
/// hashed as it is formatted (no intermediate string).
pub fn debug_fingerprint<T: std::fmt::Debug>(items: &[T]) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for item in items {
        // INVARIANT: `Fnv::write_str` never fails.
        writeln!(h, "{item:?}").expect("hashing writer is infallible");
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    #[test]
    fn debug_fingerprint_equals_hash_of_rendered_lines() {
        let items = [(1, "a"), (2, "b")];
        let text: String = items.iter().map(|i| format!("{i:?}\n")).collect();
        assert_eq!(
            debug_fingerprint(&items),
            crate::pinned::fnv1a(text.bytes())
        );
    }

    #[test]
    fn matching_seed_keeps_qualifying_seeds_and_walks_the_chain_otherwise() {
        let measure = |s: u64| (s % 10) as f64 + 1.0; // reference 2008 -> 9.0
        assert_eq!(matching_seed(REFERENCE_SEED, 0.0, measure), REFERENCE_SEED);
        assert_eq!(matching_seed(38, 0.0, measure), 38);
        let s = matching_seed(1, 0.0, measure);
        assert_eq!(s % 10, 8);
        assert_eq!(matching_seed(1, 0.0, measure), s, "deterministic");
    }

    #[test]
    fn unknown_top_level_span_is_an_error() {
        let spans = [
            Span {
                name: "pass",
                start_ns: 0,
                end_ns: 10,
                parent: None,
            },
            Span {
                name: "mystery",
                start_ns: 0,
                end_ns: 5,
                parent: Some(0),
            },
        ];
        let err = layer_values(&PassOut::default(), &Profile::of(&spans));
        assert!(err.is_err());
    }
}
