//! Differential tests for the simulator's two scheduler cores: the
//! event-driven cycle-skipping core (the default) must produce results
//! **byte-identical** to the dense per-cycle reference loop
//! (`SimConfig::dense_reference`) — cycles, the full **raw** sample
//! stream (per-sample cycle, SM, scheduler, PC, stall — collected via
//! the raw-buffering sink, since the default aggregate could mask a
//! sample taken at the wrong cycle by a warp in the same state), per-PC
//! issue counts, memory/L2/i-cache counters, and per-SM stats — across
//! every app in the benchmark registry.

use gpa::arch::ArchConfig;
use gpa::kernels::runner::{arch_for, launch_spec_with, launch_spec_with_sink, sim_config};
use gpa::kernels::{all_apps, KernelSpec, Params};
use gpa::sampling::KernelProfile;
use gpa::sim::{LaunchResult, RawSample, SampleSet, SimConfig};

/// Runs one spec to completion under the given scheduler core.
fn launch_with(spec: &KernelSpec, arch: &ArchConfig, cfg: SimConfig) -> LaunchResult {
    launch_spec_with(spec, arch, cfg).expect("launch succeeds")
}

/// Like [`launch_with`], but buffering the raw sample stream.
fn launch_raw(
    spec: &KernelSpec,
    arch: &ArchConfig,
    cfg: SimConfig,
) -> (LaunchResult, Vec<RawSample>) {
    let mut raw = Vec::new();
    let result = launch_spec_with_sink(spec, arch, cfg, &mut raw).expect("launch succeeds");
    (result, raw)
}

fn cfg(dense: bool) -> SimConfig {
    SimConfig { dense_reference: dense, ..sim_config() }
}

/// Every variant of every app (the Table 3 optimization stages push
/// different instruction mixes through the issue scan and the ALU).
#[test]
fn all_apps_dense_vs_event_driven_identical() {
    let p = Params::test();
    let arch = arch_for(&p);
    let mut subjects = 0;
    for app in all_apps() {
        for v in 0..app.variants() {
            let spec = (app.build)(v, &p);
            let dense = launch_with(&spec, &arch, cfg(true));
            let event = launch_with(&spec, &arch, cfg(false));
            let name = format!("{} v{v}", app.name);
            // Named comparisons first so a mismatch reads well, then the
            // whole result (covers occupancy, launch, and future fields).
            assert_eq!(dense.cycles, event.cycles, "{name}: cycles");
            assert_eq!(dense.issued, event.issued, "{name}: issued");
            assert_eq!(dense.samples, event.samples, "{name}: aggregated samples");
            assert_eq!(dense.issue_counts, event.issue_counts, "{name}: issue counts");
            assert_eq!(dense.mem_transactions, event.mem_transactions, "{name}: mem txns");
            assert_eq!(dense.l2_hits, event.l2_hits, "{name}: L2 hits");
            assert_eq!(dense.l2_misses, event.l2_misses, "{name}: L2 misses");
            assert_eq!(dense.icache_misses, event.icache_misses, "{name}: icache misses");
            assert_eq!(dense.sm_stats, event.sm_stats, "{name}: per-SM stats");
            assert_eq!(dense, event, "{name}: full LaunchResult");
            subjects += 1;
        }
    }
    assert_eq!(subjects, 47, "21 baselines plus the 26 Table 3 variants");
}

/// The raw-stream differential: per-sample cycle/SM/scheduler identity,
/// which the aggregated `SampleSet` comparison above cannot see (two
/// cores sampling the same warp state at *different* cycles would
/// aggregate identically). Also pins the raw stream to the default
/// aggregate, and covers a nonzero sampling phase.
#[test]
fn all_apps_raw_sample_streams_identical() {
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps() {
        let spec = (app.build)(0, &p);
        for phase in [0, 7] {
            let with_phase = |dense: bool| SimConfig { sampling_phase: phase, ..cfg(dense) };
            let (_, dense_raw) = launch_raw(&spec, &arch, with_phase(true));
            let (_, event_raw) = launch_raw(&spec, &arch, with_phase(false));
            assert_eq!(
                dense_raw, event_raw,
                "{} (phase {phase}): raw sample streams differ",
                app.name
            );
            let aggregated = launch_with(&spec, &arch, with_phase(false));
            assert_eq!(
                SampleSet::from_raw(&event_raw),
                aggregated.samples,
                "{} (phase {phase}): raw stream aggregates to the default set",
                app.name
            );
        }
    }
}

/// The same 21-app differential with the timed memory hierarchy
/// enabled: the hierarchy's servers (L1, MSHR file, L2 queue) are part
/// of the frozen machine state, so the event core must still land on
/// byte-identical results — raw sample streams included, since the new
/// stall reasons ride in them. The demo kernel rides along as the 22nd
/// subject because it is the one built to saturate those servers.
#[test]
fn all_apps_dense_vs_event_driven_identical_with_hierarchy() {
    let p = Params::test();
    let arch = arch_for(&p).with_hierarchy();
    let specs = all_apps()
        .iter()
        .map(|app| (app.name, (app.build)(0, &p)))
        .chain([("demo/membound", (gpa::kernels::apps::membound::app().build)(0, &p))])
        .collect::<Vec<_>>();
    for (name, spec) in &specs {
        let (dense, dense_raw) = launch_raw(spec, &arch, cfg(true));
        let (event, event_raw) = launch_raw(spec, &arch, cfg(false));
        assert_eq!(dense.cycles, event.cycles, "{name}: cycles under hierarchy");
        assert_eq!(dense_raw, event_raw, "{name}: raw sample streams under hierarchy");
        assert_eq!(dense, event, "{name}: full LaunchResult under hierarchy");
    }
}

#[test]
fn aggregated_profiles_are_identical_too() {
    // Sample aggregation is deterministic, so identical raw samples must
    // yield identical profiles — the artifact the advisor actually sees.
    let p = Params::test();
    let arch = arch_for(&p);
    for app in all_apps().into_iter().take(4) {
        let spec = (app.build)(0, &p);
        let period = sim_config().sampling_period;
        let profile = |dense: bool| {
            let r = launch_with(&spec, &arch, cfg(dense));
            KernelProfile::from_launch(
                &spec.entry,
                &spec.module.name,
                &spec.module.arch,
                period,
                &r,
            )
        };
        assert_eq!(profile(true), profile(false), "{}: aggregated profile", app.name);
    }
}
