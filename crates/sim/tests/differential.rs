//! Differential test: the event-driven incremental engine against the
//! full-levelized oracle.
//!
//! Both engines must settle every cycle to the *same* frame: combinational
//! values are a pure function of flip-flop, input, and forced values on an
//! acyclic netlist, so the engines may only differ in how much work they
//! do. Random designs are driven with random sequences of input drives,
//! forces/releases (on inputs, internal nets, and flip-flop outputs), state
//! snapshots and restores — every operation the symbolic explorer performs
//! — and the frames are compared after every eval, both on the scalar
//! engine and on the batched engine at lane widths 1, 8, and 64.
//!
//! Case counts honour the `PROPTEST_CASES` environment variable as a
//! ceiling, so CI can bound the fuzz budget without editing the tests.

use proptest::prelude::*;
use xbound_logic::{Lv, XWord};
use xbound_netlist::rtl::Rtl;
use xbound_netlist::{CellKind, NetId, Netlist};
use xbound_sim::{
    BatchSimulator, BusSpec, EvalMode, MachineState, MemRegion, RegionKind, Simulator,
};

/// Proptest case budget: the source default, clamped down (never up) by
/// `PROPTEST_CASES` so CI invocations stay bounded.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|env| env.min(default))
        .unwrap_or(default)
}

/// Builds a random DAG netlist (combinational + flip-flop mix) from a seed.
fn random_netlist(n_gates: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let a = nl.add_input("in_a");
    let b = nl.add_input("in_b");
    let c = nl.add_input("in_c");
    let mut nets = vec![a, b, c];
    let kinds = [
        CellKind::Buf,
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Dff,
        CellKind::Dffe,
        CellKind::Dffr,
        CellKind::Dffre,
    ];
    for gi in 0..n_gates {
        let kind = kinds[(next() as usize) % kinds.len()];
        let ins: Vec<NetId> = (0..kind.input_count())
            .map(|_| nets[(next() as usize) % nets.len()])
            .collect();
        let y = nl.add_net(format!("n{gi}"));
        nl.add_gate(kind, format!("g{gi}"), &ins, y).expect("gate");
        nets.push(y);
    }
    nl.add_output("out", *nets.last().expect("nonempty"));
    nl.finalize().expect("random DAG is acyclic")
}

fn lv_of(x: u64) -> Lv {
    match x % 3 {
        0 => Lv::Zero,
        1 => Lv::One,
        _ => Lv::X,
    }
}

/// One random stimulus step applied identically to every simulator.
fn apply_op<F: FnMut() -> u64>(
    next: &mut F,
    nl: &Netlist,
    sims: &mut [&mut Simulator<'_>],
    snapshots: &mut Vec<MachineState>,
) {
    let nets = nl.net_count() as u64;
    match next() % 10 {
        // Drive a random primary input (possibly X).
        0..=3 => {
            let inputs = nl.inputs();
            let n = inputs[(next() as usize) % inputs.len()];
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.drive_input(n, v);
            }
        }
        // Force a random net.
        4..=5 => {
            let n = NetId((next() % nets) as u32);
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.force(n, Some(v));
            }
        }
        // Release a random net's force.
        6..=7 => {
            let n = NetId((next() % nets) as u32);
            for sim in sims.iter_mut() {
                sim.force(n, None);
            }
        }
        // Snapshot.
        8 => snapshots.push(sims[0].machine_state()),
        // Restore a random earlier snapshot (exercises the diffing path).
        _ => {
            if !snapshots.is_empty() {
                let s = &snapshots[(next() as usize) % snapshots.len()];
                for sim in sims.iter_mut() {
                    sim.set_machine_state(s);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Event-driven and levelized evaluation produce identical
    /// frames at every cycle of a random drive/force/restore sequence.
    #[test]
    fn engines_agree_on_random_designs(
        n_gates in 4usize..80,
        seed in any::<u64>(),
        steps in 4usize..40,
    ) {
        let nl = random_netlist(n_gates, seed);
        let mut event = Simulator::new(&nl);
        event.set_eval_mode(EvalMode::EventDriven);
        let mut oracle = Simulator::new(&nl);
        oracle.set_eval_mode(EvalMode::Levelized);
        prop_assert_eq!(oracle.eval_mode(), EvalMode::Levelized);

        let mut rng = seed ^ 0x9E3779B97F4A7C15 | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots = Vec::new();
        for step in 0..steps {
            {
                let mut sims = [&mut event, &mut oracle];
                apply_op(&mut next, &nl, &mut sims, &mut snapshots);
            }
            let fe = event.eval().expect("no bus: settles").clone();
            let fo = oracle.eval().expect("no bus: settles").clone();
            prop_assert_eq!(
                &fe, &fo,
                "event vs levelized diverge at step {} (diff nets: {:?})",
                step, fe.diff_indices(&fo)
            );
            event.commit();
            oracle.commit();
            prop_assert_eq!(event.machine_state(), oracle.machine_state());
        }
    }

    /// Same agreement over a design with an external bus (ROM + RAM +
    /// port), including X-valued addresses and write smears.
    #[test]
    fn engines_agree_on_bus_device(
        seed in any::<u64>(),
        steps in 4usize..32,
    ) {
        // A device that exposes the bus directly to the test's inputs.
        let mut r = Rtl::new("busdev");
        let rdata = r.input("rdata", 16);
        let wen_in = r.input_bit("wen_in");
        let addr_in = r.input("addr_in", 16);
        let data_in = r.input("data_in", 16);
        let (ha, acc) = r.reg("acc", 16);
        let (sum, _) = r.add(&acc, &rdata, None);
        r.reg_next(ha, &sum);
        r.output("addr", &addr_in);
        r.output("wdata", &data_in);
        r.output_bit("wen", wen_in);
        r.output("acc", &acc);
        let nl = r.finish().expect("builds");
        let bus = || BusSpec {
            addr: (0..16)
                .map(|i| nl.find_net(&format!("addr_in[{i}]")).expect("net"))
                .collect(),
            wdata: (0..16)
                .map(|i| nl.find_net(&format!("data_in[{i}]")).expect("net"))
                .collect(),
            rdata: (0..16)
                .map(|i| nl.find_net(&format!("rdata[{i}]")).expect("net"))
                .collect(),
            wen: nl.find_net("wen_in"),
        };
        let mems = || {
            let mut rom = MemRegion::new("rom", RegionKind::Rom, 0xF000, 8);
            rom.load(0xF000, &[1, 2, 3, 4, 5, 6, 7, 8]);
            let mut ram = MemRegion::new("ram", RegionKind::Ram, 0x0200, 8);
            ram.fill(XWord::from_u16(0));
            let port = MemRegion::new("port", RegionKind::Port, 0x0020, 4);
            vec![rom, ram, port]
        };
        let mut event = Simulator::new(&nl);
        event.set_eval_mode(EvalMode::EventDriven);
        event.attach_bus(bus(), mems()).expect("bus ok");
        let mut oracle = Simulator::new(&nl);
        oracle.set_eval_mode(EvalMode::Levelized);
        oracle.attach_bus(bus(), mems()).expect("bus ok");

        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut snapshots = Vec::new();
        for step in 0..steps {
            // Point the address at one of the regions (or nowhere), with a
            // chance of X bits; drive write data and write-enable randomly.
            let base = [0xF000u16, 0x0200, 0x0020, 0x4000][(next() % 4) as usize];
            let addr = base + ((next() % 8) as u16) * 2;
            for i in 0..16 {
                let n = nl.find_net(&format!("addr_in[{i}]")).expect("net");
                let v = if next() % 8 == 0 {
                    Lv::X
                } else {
                    Lv::from_bool((addr >> i) & 1 == 1)
                };
                event.drive_input(n, v);
                oracle.drive_input(n, v);
                let d = nl.find_net(&format!("data_in[{i}]")).expect("net");
                let dv = lv_of(next());
                event.drive_input(d, dv);
                oracle.drive_input(d, dv);
            }
            let wen = lv_of(next());
            let wn = nl.find_net("wen_in").expect("net");
            event.drive_input(wn, wen);
            oracle.drive_input(wn, wen);
            if next() % 5 == 0 {
                snapshots.push(event.machine_state());
            }
            if next() % 5 == 0 && !snapshots.is_empty() {
                let s = &snapshots[(next() as usize) % snapshots.len()];
                event.set_machine_state(s);
                oracle.set_machine_state(s);
            }
            let fe = event.eval().expect("bus settles").clone();
            let fo = oracle.eval().expect("bus settles").clone();
            prop_assert_eq!(
                &fe, &fo,
                "event vs levelized diverge at step {} (diff nets: {:?})",
                step, fe.diff_indices(&fo)
            );
            event.commit();
            oracle.commit();
            prop_assert_eq!(event.machine_state(), oracle.machine_state());
        }
    }
}

/// One random batched stimulus step applied identically to every batched
/// simulator: whole-vector and per-lane drives, whole-vector and per-lane
/// forces/releases, and per-lane snapshot restores.
fn apply_batch_op<F: FnMut() -> u64>(
    next: &mut F,
    nl: &Netlist,
    lanes: usize,
    sims: &mut [&mut BatchSimulator<'_>],
    snapshots: &mut Vec<MachineState>,
) {
    let nets = nl.net_count() as u64;
    match next() % 12 {
        // Drive a random primary input across every lane.
        0..=2 => {
            let inputs = nl.inputs();
            let n = inputs[(next() as usize) % inputs.len()];
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.drive_input(n, v);
            }
        }
        // Drive one lane of a random primary input (possibly X).
        3..=5 => {
            let inputs = nl.inputs();
            let n = inputs[(next() as usize) % inputs.len()];
            let lane = (next() as usize) % lanes;
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.drive_input_lane(n, lane, v);
            }
        }
        // Force a random net in every lane.
        6 => {
            let n = NetId((next() % nets) as u32);
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.force(n, Some(v));
            }
        }
        // Force one lane of a random net (partial-lane force masks).
        7..=8 => {
            let n = NetId((next() % nets) as u32);
            let lane = (next() as usize) % lanes;
            let v = lv_of(next());
            for sim in sims.iter_mut() {
                sim.force_lane(n, lane, Some(v));
            }
        }
        // Release a random net's force in one lane.
        9 => {
            let n = NetId((next() % nets) as u32);
            let lane = (next() as usize) % lanes;
            for sim in sims.iter_mut() {
                sim.force_lane(n, lane, None);
            }
        }
        // Snapshot a random lane.
        10 => {
            let lane = (next() as usize) % lanes;
            snapshots.push(sims[0].lane_machine_state(lane));
        }
        // Restore an earlier snapshot into a random lane.
        _ => {
            if !snapshots.is_empty() {
                let s = &snapshots[(next() as usize) % snapshots.len()];
                let lane = (next() as usize) % lanes;
                for sim in sims.iter_mut() {
                    sim.set_lane_machine_state(lane, s);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// The two engines also agree on the batched (wide) instantiation at
    /// lane widths 1, 8, and 64, under per-lane drives, partial-lane
    /// forces, and cross-lane snapshot restores.
    #[test]
    fn engines_agree_batched_at_lane_widths(
        n_gates in 4usize..60,
        seed in any::<u64>(),
        steps in 4usize..24,
    ) {
        let nl = random_netlist(n_gates, seed);
        for &lanes in &[1usize, 8, 64] {
            let mut event = BatchSimulator::new(&nl, lanes);
            event.set_eval_mode(EvalMode::EventDriven);
            let mut oracle = BatchSimulator::new(&nl, lanes);
            oracle.set_eval_mode(EvalMode::Levelized);

            let mut rng = seed ^ 0xD1B54A32D192ED03 | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut snapshots = Vec::new();
            for step in 0..steps {
                {
                    let mut sims = [&mut event, &mut oracle];
                    apply_batch_op(&mut next, &nl, lanes, &mut sims, &mut snapshots);
                }
                let fe = event.eval().expect("no bus: settles").clone();
                let fo = oracle.eval().expect("no bus: settles").clone();
                prop_assert_eq!(
                    &fe, &fo,
                    "event vs levelized diverge at step {} ({} lanes)",
                    step, lanes
                );
                event.commit();
                oracle.commit();
                for lane in 0..lanes {
                    prop_assert_eq!(
                        event.lane_machine_state(lane),
                        oracle.lane_machine_state(lane),
                        "machine state diverges in lane {} at step {}",
                        lane, step
                    );
                }
            }
        }
    }
}
