//! Integration: measuring real compiled kernels through the Mediator farm
//! with the Listing 4.1 measurement modules — the end-to-end workflow of
//! Chapter 4.

use lgen_isa::{MOp, MachInst, Microarch, TraceSink};
use lgen_machine::Simulator;
use lgen_mediator::measure::module_for;
use lgen_mediator::{DeviceSpec, ExperimentSpec, Mediator};
use std::time::Duration;

fn farm() -> Mediator {
    Mediator::new(
        Microarch::EVALUATED
            .iter()
            .map(|&arch| DeviceSpec {
                hostname: arch.name().to_lowercase().replace(' ', "-"),
                arch,
                cores: 2,
            })
            .collect(),
        Duration::from_secs(30),
    )
}

#[test]
fn measurement_module_wraps_simulated_counters() {
    // The start/stop protocol measures exactly the instructions between the
    // calls, like RDTSC / CCNT reads around the kernel invocation.
    for arch in Microarch::EVALUATED {
        let mut sim = Simulator::new(arch);
        let mut module = module_for(arch);
        module.init();
        module.start(&sim);
        for i in 0..8u32 {
            sim.emit(&MachInst::reg(MOp::FMul, Some(20 + i), &[0, 1]));
        }
        let first = module.stop(&sim);
        module.start(&sim);
        let second = module.stop(&sim);
        assert!(first > 0);
        assert_eq!(second, 0, "no instructions ⇒ no cycles");
        assert_eq!(module.finish(), vec![first, second]);
    }
}

#[test]
fn farm_measures_kernels_on_every_device() {
    let m = farm();
    let experiments = Microarch::EVALUATED
        .iter()
        .map(|&arch| {
            ExperimentSpec::new(
                arch.name().to_lowercase().replace(' ', "-"),
                Box::new(|arch, _core| {
                    // Compile and measure a gemv through the full pipeline.
                    let blac = lgen_ll::paper::gemv(4, 16);
                    let kernel =
                        lgen_core::compile(&blac, "k", &lgen_core::CompileConfig::full(arch));
                    let meas = lgen_core::measure_blac(&blac, &kernel, arch, &[0; 5], 3)
                        .map_err(|e| e.to_string())?;
                    Ok(vec![format!("{}", meas.cycles)])
                }),
            )
        })
        .collect();
    let results = m.submit_sync(experiments).expect("accepted");
    assert_eq!(results.data.len(), 4);
    let cycles: Vec<u64> = results
        .data
        .iter()
        .map(|r| r.outcome.as_ref().unwrap()[0].parse().unwrap())
        .collect();
    // The scalar ARM1176 must be the slowest of the four.
    let max = *cycles.iter().max().unwrap();
    assert_eq!(
        cycles[3], max,
        "ARM1176 should need the most cycles: {cycles:?}"
    );
}

#[test]
fn repetitions_run_on_the_same_core() {
    let m = farm();
    let results = m
        .submit_sync(vec![ExperimentSpec::new(
            "intel-atom",
            Box::new(|_, core| Ok((0..3).map(|r| format!("rep{r}@{core}")).collect())),
        )
        .on_cores(vec![1])])
        .expect("accepted");
    let outs = results.data[0].outcome.as_ref().unwrap();
    assert_eq!(outs.len(), 3);
    assert!(outs.iter().all(|o| o.ends_with("@1")));
}

#[test]
fn stress_many_concurrent_jobs() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let m = farm();
    let completed = Arc::new(AtomicUsize::new(0));
    // 10 async jobs × 8 experiments over 4 devices × 2 cores.
    let mut ids = Vec::new();
    for j in 0..10 {
        let batch = (0..8)
            .map(|e| {
                let completed = completed.clone();
                ExperimentSpec::new(
                    Microarch::EVALUATED[(j + e) % 4]
                        .name()
                        .to_lowercase()
                        .replace(' ', "-"),
                    Box::new(move |_, _| {
                        completed.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![format!("{j}:{e}")])
                    }),
                )
            })
            .collect();
        ids.push(m.submit_async(batch).expect("accepted"));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for id in &ids {
        loop {
            match m.poll(id).state {
                lgen_mediator::JobState::Finished => break,
                lgen_mediator::JobState::NotFound => panic!("job lost"),
                _ => {
                    assert!(std::time::Instant::now() < deadline, "stress timed out");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    assert_eq!(completed.load(Ordering::SeqCst), 80);
}
