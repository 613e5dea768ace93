//! Criterion benchmarks for the substrates: gate-level simulation
//! throughput, power analysis, the assembler, and the Liberty parser.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use xbound_cells::CellLibrary;
use xbound_cpu::Cpu;
use xbound_msp430::assemble;
use xbound_power::PowerAnalyzer;

fn bench_gate_sim(c: &mut Criterion) {
    let cpu = Cpu::build().expect("builds");
    let bench = xbound_benchsuite::by_name("tea8").expect("exists");
    let program = bench.program().expect("assembles");
    let mut g = c.benchmark_group("gate_level_simulation");
    g.sample_size(10);
    let cycles = 500u64;
    g.throughput(Throughput::Elements(
        cycles * cpu.netlist().gate_count() as u64,
    ));
    g.bench_function("tea8_500_cycles", |b| {
        b.iter(|| {
            let mut sim = cpu.new_sim();
            Cpu::load_program(&mut sim, &program, true);
            for _ in 0..cycles {
                sim.step();
            }
            sim.cycle()
        });
    });
    g.finish();
}

fn bench_power_analysis(c: &mut Criterion) {
    let cpu = Cpu::build().expect("builds");
    let bench = xbound_benchsuite::by_name("intAVG").expect("exists");
    let program = bench.program().expect("assembles");
    let mut sim = cpu.new_sim();
    Cpu::load_program(&mut sim, &program, true);
    let mut frames = Vec::new();
    for _ in 0..200 {
        frames.push(sim.eval().expect("settles").clone());
        sim.commit();
    }
    let lib = CellLibrary::ulp65();
    let mut g = c.benchmark_group("power_analysis");
    g.throughput(Throughput::Elements(frames.len() as u64));
    g.bench_function("activity_based_200_cycles", |b| {
        let analyzer = PowerAnalyzer::new(cpu.netlist(), &lib, 100.0e6);
        b.iter(|| analyzer.analyze(&frames));
    });
    g.finish();
}

fn bench_assembler_and_liberty(c: &mut Criterion) {
    let src = xbound_benchsuite::by_name("tea8").expect("exists").source();
    c.bench_function("assemble_tea8", |b| {
        b.iter(|| assemble(src).expect("assembles"));
    });
    c.bench_function("parse_liberty_ulp65", |b| {
        b.iter(|| xbound_cells::liberty::parse(xbound_cells::ULP65_LIB).expect("parses"));
    });
}

fn bench_cpu_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_construction");
    g.sample_size(10);
    g.bench_function("build_gate_level_core", |b| {
        b.iter(|| Cpu::build().expect("builds"));
    });
    g.finish();
}

/// Scalar vs batched gate-kernel throughput on the ulp65-cell core:
/// 32 concrete tea8 runs with diverging inputs, either as 32 scalar
/// simulations or as one 32-lane batched simulation (identical results —
/// see `crates/sim/tests/batch_differential.rs`). Throughput is counted
/// in lane-cycles, so the reported ratio is the concrete-run speedup
/// recorded in `BENCH_sim.json`.
fn bench_batch_vs_scalar_sim(c: &mut Criterion) {
    let cpu = Cpu::build().expect("builds");
    let bench = xbound_benchsuite::by_name("tea8").expect("exists");
    let program = bench.program().expect("assembles");
    let cycles = 200u64;
    let lanes = 32usize;
    let inputs_of = |lane: usize| -> Vec<u16> {
        (0..8)
            .map(|i| (lane as u16).wrapping_mul(31).wrapping_add(i * 97))
            .collect()
    };
    let mut g = c.benchmark_group("batched_concrete_simulation");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cycles * lanes as u64));
    g.bench_function("scalar_32_runs_200_cycles", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for lane in 0..lanes {
                let mut sim = cpu.new_sim();
                Cpu::load_program(&mut sim, &program, true);
                Cpu::set_inputs(&mut sim, &inputs_of(lane));
                for _ in 0..cycles {
                    sim.step();
                }
                total += sim.cycle();
            }
            total
        });
    });
    g.bench_function("batch_32_lanes_200_cycles", |b| {
        b.iter(|| {
            let mut sim = cpu.new_batch_sim(lanes);
            Cpu::load_program_batch(&mut sim, &program, true);
            for lane in 0..lanes {
                Cpu::set_inputs_lane(&mut sim, lane, &inputs_of(lane));
            }
            for _ in 0..cycles {
                sim.step();
            }
            sim.cycle()
        });
    });
    g.finish();
}

/// Event-driven vs levelized engine throughput on the same concrete tea8
/// run (identical frames — see `crates/sim/tests/differential.rs`). One
/// simulator per engine is built and program-loaded outside the timing
/// loop and rewound by snapshot restore each iteration, so the numbers
/// isolate the settle kernels: throughput is counted in gate-passes (cycles × comb gates,
/// × 1 whichever lane width, since one pass covers all lanes word-wise).
/// These are the `ns/gate-pass` rows recorded in `BENCH_sim.json`.
fn bench_engine_comparison(c: &mut Criterion) {
    use xbound_sim::EvalMode;
    let cpu = Cpu::build().expect("builds");
    let bench = xbound_benchsuite::by_name("tea8").expect("exists");
    let program = bench.program().expect("assembles");
    let cycles = 200u64;
    let lanes = 32usize;
    let inputs_of = |lane: usize| -> Vec<u16> {
        (0..8)
            .map(|i| (lane as u16).wrapping_mul(31).wrapping_add(i * 97))
            .collect()
    };
    let modes = [
        ("event_driven", EvalMode::EventDriven),
        ("levelized", EvalMode::Levelized),
    ];

    let mut g = c.benchmark_group("engine_concrete_simulation");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        cycles * cpu.netlist().gate_count() as u64,
    ));
    for (name, mode) in modes {
        let mut sim = cpu.new_sim();
        sim.set_eval_mode(mode);
        Cpu::load_program(&mut sim, &program, true);
        Cpu::set_inputs(&mut sim, &inputs_of(0));
        let start = sim.machine_state();
        g.bench_function(format!("{name}_tea8_200_cycles"), |b| {
            b.iter(|| {
                sim.set_machine_state(&start);
                for _ in 0..cycles {
                    sim.step();
                }
                sim.cycle()
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("engine_batched_concrete_simulation");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        cycles * cpu.netlist().gate_count() as u64,
    ));
    for (name, mode) in modes {
        let mut sim = cpu.new_batch_sim(lanes);
        sim.set_eval_mode(mode);
        Cpu::load_program_batch(&mut sim, &program, true);
        for lane in 0..lanes {
            Cpu::set_inputs_lane(&mut sim, lane, &inputs_of(lane));
        }
        let start = sim.machine_state();
        g.bench_function(format!("{name}_tea8_32_lanes_200_cycles"), |b| {
            b.iter(|| {
                sim.set_machine_state(&start);
                for _ in 0..cycles {
                    sim.step();
                }
                sim.cycle()
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gate_sim,
    bench_power_analysis,
    bench_assembler_and_liberty,
    bench_cpu_construction,
    bench_batch_vs_scalar_sim,
    bench_engine_comparison
);
criterion_main!(benches);
