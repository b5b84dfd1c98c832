//! Property tests for the POWER5 model: decode arbitration and the SMT
//! performance model.

use power5::decode::{decode_share, SlotArbiter};
use power5::{
    AnalyticModel, Chip, CpuId, CtxLoad, HwPriority, IdleMode, PerfModel, PrivilegeLevel,
    TableModel, TaskPerfTraits, Topology,
};
use proptest::prelude::*;

fn prio(v: u8) -> HwPriority {
    HwPriority::new(v).unwrap()
}

fn busy(v: u8) -> CtxLoad {
    CtxLoad::Busy { prio: prio(v), traits: TaskPerfTraits::default() }
}

/// Drives `chip` through `ops` — `(kind, cpu, value)` triples decoded into
/// `set_load`, `set_priority`, `set_priority_hypervisor`, `reset_priority`
/// and `set_idle_mode` calls — keeping a speed memo that recomputes only
/// when [`Chip::version`] moves. After every call the memo must equal a
/// fresh `all_speeds()` bit for bit, and re-issuing an identical
/// `set_load` must leave the version alone.
fn check_speed_memo(mut chip: Chip, ops: &[(u8, usize, u8)]) {
    let traits =
        [TaskPerfTraits::default(), TaskPerfTraits::uniform(0.5), TaskPerfTraits::new(0.9, 0.2)];
    let ncpus = chip.topology().num_cpus();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let mut memo = (chip.version(), bits(chip.all_speeds()));
    for &(kind, cpu, value) in ops {
        let cpu = CpuId(cpu % ncpus);
        match kind {
            0..=2 => {
                let load = (kind < 2).then(|| traits[value as usize % traits.len()]);
                chip.set_load(cpu, load);
                let version = chip.version();
                chip.set_load(cpu, load);
                prop_assert_eq!(chip.version(), version, "repeated identical set_load");
            }
            3 => {
                // Out-of-range requests fail and must leave the state alone.
                let prio = HwPriority::new(value % 8).unwrap();
                let _ = chip.set_priority(cpu, prio, PrivilegeLevel::Supervisor);
            }
            4 => chip.set_priority_hypervisor(cpu, HwPriority::new(value % 8).unwrap()),
            5 => chip.reset_priority(cpu),
            _ => chip.set_idle_mode(if value % 2 == 0 { IdleMode::Spin } else { IdleMode::Snooze }),
        }
        if chip.version() != memo.0 {
            memo = (chip.version(), bits(chip.all_speeds()));
        }
        prop_assert_eq!(&memo.1, &bits(chip.all_speeds()), "memoised speeds went stale");
    }
}

proptest! {
    /// Decode shares of two live contexts always sum to 1.
    #[test]
    fn shares_partition_the_core(a in 1u8..=7, b in 1u8..=7) {
        let s = decode_share(prio(a), prio(b));
        prop_assert!((s.a + s.b - 1.0).abs() < 1e-12);
        prop_assert!(s.a >= 0.0 && s.b >= 0.0);
    }

    /// The slot arbiter converges to the closed-form share for any regular
    /// pair and any horizon that is a multiple of the window.
    #[test]
    fn arbiter_matches_closed_form(a in 2u8..=6, b in 2u8..=6, windows in 1u64..50) {
        let mut arb = SlotArbiter::new(prio(a), prio(b));
        let r = arb.window() as u64;
        let n = r * windows;
        let (ca, cb) = arb.run(n);
        let share = decode_share(prio(a), prio(b));
        prop_assert!((ca as f64 / n as f64 - share.a).abs() < 1e-12);
        prop_assert!((cb as f64 / n as f64 - share.b).abs() < 1e-12);
    }

    /// Raising one thread's priority never slows it down and never speeds
    /// up its sibling (table model, default traits).
    #[test]
    fn priority_is_monotone(base in 2u8..=5, other in 2u8..=6) {
        let m = TableModel::default();
        let lo = m.speeds(busy(base), busy(other));
        let hi = m.speeds(busy(base + 1), busy(other));
        prop_assert!(hi.a >= lo.a - 1e-12, "own speed non-decreasing");
        prop_assert!(hi.b <= lo.b + 1e-12, "sibling speed non-increasing");
    }

    /// Aggregate throughput stays within physical bounds: no SMT pair can
    /// beat two dedicated cores, and a live pair always makes progress.
    #[test]
    fn aggregate_throughput_bounded(a in 2u8..=6, b in 2u8..=6) {
        for speeds in [
            TableModel::default().speeds(busy(a), busy(b)),
            AnalyticModel::default().speeds(busy(a), busy(b)),
        ] {
            let total = speeds.a + speeds.b;
            prop_assert!(total > 0.5, "pair makes progress: {total}");
            prop_assert!(total < 2.0, "cannot beat two dedicated cores: {total}");
        }
    }

    /// Sensitivity only ever shrinks the deviation from equal-priority
    /// speed, for both gain and loss sides.
    #[test]
    fn sensitivity_dampens(a in 2u8..=6, b in 2u8..=6, s in 0.0f64..1.0) {
        let m = TableModel::default();
        let full = m.speeds(busy(a), busy(b));
        let damped = m.speeds(
            CtxLoad::Busy { prio: prio(a), traits: TaskPerfTraits::uniform(s) },
            CtxLoad::Busy { prio: prio(b), traits: TaskPerfTraits::uniform(s) },
        );
        let equal = 0.8;
        prop_assert!((damped.a - equal).abs() <= (full.a - equal).abs() + 1e-12);
        prop_assert!((damped.b - equal).abs() <= (full.b - equal).abs() + 1e-12);
    }

    /// The paper's asymmetry claim holds across the regular range: the
    /// victim's relative loss is at least the winner's relative gain.
    #[test]
    fn loss_exceeds_gain(low in 2u8..=5, d in 1u8..=4) {
        let high = (low + d).min(6);
        if high == low { return Ok(()); }
        let m = TableModel::default();
        let s = m.speeds(busy(high), busy(low));
        let gain = s.a / 0.8 - 1.0;
        let loss = 1.0 - s.b / 0.8;
        prop_assert!(loss >= gain, "gain {gain} loss {loss}");
    }

    /// Privilege checking is consistent: anything supervisor may set, the
    /// hypervisor may set; anything user may set, the supervisor may set.
    #[test]
    fn privilege_hierarchy(v in 0u8..=7) {
        use power5::PrivilegeLevel::*;
        let p = prio(v);
        if p.allowed_at(User) {
            prop_assert!(p.allowed_at(Supervisor));
        }
        if p.allowed_at(Supervisor) {
            prop_assert!(p.allowed_at(Hypervisor));
        }
    }

    /// or-nop encodings are a bijection over priorities 1..=7.
    #[test]
    fn or_nop_bijection(v in 1u8..=7) {
        let p = prio(v);
        let reg = p.or_nop_register().expect("1..=7 all have encodings");
        prop_assert_eq!(HwPriority::from_or_nop_register(reg), Some(p));
    }

    /// The speed memo on the 2-way OpenPower 710 (pairwise table model).
    #[test]
    fn speed_memo_matches_fresh_speeds_table_model(
        ops in proptest::collection::vec((0u8..7, 0usize..4, 0u8..8), 1..120),
    ) {
        check_speed_memo(Chip::new(Topology::openpower_710()), &ops);
    }

    /// The speed memo on a 4-way SMT core (analytic n-way model).
    #[test]
    fn speed_memo_matches_fresh_speeds_wide_smt(
        ops in proptest::collection::vec((0u8..7, 0usize..4, 0u8..8), 1..120),
    ) {
        check_speed_memo(Chip::new(Topology::new(1, 1, 4)), &ops);
    }
}
