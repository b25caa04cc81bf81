//! The device: SMs, warp schedulers, and the main timing loop.
//!
//! The timing core is **event-driven**: instead of re-evaluating every
//! warp on every cycle, the scheduler computes, per warp, the earliest
//! cycle it could possibly issue (`ready_at`) and jumps the clock
//! straight to the next interesting cycle — the minimum over all warps'
//! ready times and the next PC-sampling tick. Nothing can change while no
//! warp issues (all scoreboard/barrier/pipe clear times are frozen), so
//! samples taken at skipped-period boundaries and the final
//! [`LaunchResult`] are byte-identical to the dense per-cycle reference
//! loop, which remains available behind [`SimConfig::dense_reference`]
//! for differential testing.

use crate::exec::{execute, ExecCtx, Outcome};
use crate::hier::SmHier;
use crate::mem::{ConstMem, DirectCache, GlobalMem};
use crate::reconv::build_reconvergence;
use crate::sample::{SampleSet, SampleSink};
use crate::stall::StallReason;
use crate::warp::WarpState;
use crate::{Result, SimError};
use gpa_arch::{ArchConfig, LatencyTable, LaunchConfig, MemModel, Occupancy};
use gpa_isa::{Instruction, MemSpace, Module, Opcode, Pipe, Slot, Visibility, INSTR_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Tunable simulator knobs (separate from the machine description).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Abort the launch after this many cycles.
    pub max_cycles: u64,
    /// PC-sampling period in cycles per SM (0 disables sampling).
    pub sampling_period: u32,
    /// Offset of the first sampling tick in cycles. Replay-style repeat
    /// profiling varies the phase per launch so merged profiles observe
    /// different cycles of the same deterministic execution.
    pub sampling_phase: u32,
    /// Cycles to swap a finished block for a queued one.
    pub block_launch_overhead: u32,
    /// Cycles until a store's read barrier clears (WAR window).
    pub war_read_cycles: u32,
    /// MUFU result latency.
    pub mufu_latency: u32,
    /// S2R result latency.
    pub s2r_latency: u32,
    /// SHFL result latency.
    pub shfl_latency: u32,
    /// Extra latency per atomic operation.
    pub atom_extra: u32,
    /// Run the dense per-cycle reference scheduler instead of the
    /// event-driven core. Slower but structurally closer to hardware;
    /// results are identical (the differential tests assert this).
    pub dense_reference: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 500_000_000,
            sampling_period: 509,
            sampling_phase: 0,
            block_launch_overhead: 25,
            war_read_cycles: 15,
            mufu_latency: 20,
            s2r_latency: 20,
            shfl_latency: 25,
            atom_extra: 12,
            dense_reference: false,
        }
    }
}

/// One PC sample, the raw material of a profile (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSample {
    /// SM that took the sample.
    pub sm: u32,
    /// Warp scheduler sampled (round-robin).
    pub scheduler: u32,
    /// Cycle of the sample.
    pub cycle: u64,
    /// PC of the sampled warp's next instruction.
    pub pc: u64,
    /// The sampled warp's stall reason (`Selected` if it issued).
    pub stall: StallReason,
    /// Whether the scheduler issued *any* instruction this cycle — `true`
    /// makes this an **active sample**, `false` a **latency sample**.
    pub scheduler_active: bool,
}

/// Per-SM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued on this SM.
    pub issued: u64,
    /// Blocks the SM executed.
    pub blocks: u32,
}

/// Everything a launch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Total kernel cycles (launch to last block completion).
    pub cycles: u64,
    /// Total instructions issued.
    pub issued: u64,
    /// Aggregated PC samples (empty when sampling is disabled, or when
    /// the launch streamed its samples into an external [`SampleSink`]).
    pub samples: SampleSet,
    /// Exact per-PC issue counts (ground truth for validation), ordered
    /// by PC so iteration is deterministic.
    pub issue_counts: BTreeMap<u64, u64>,
    /// Global-memory transactions (32-byte sectors).
    pub mem_transactions: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// The occupancy the launch achieved.
    pub occupancy: Occupancy,
    /// The launch configuration used.
    pub launch: LaunchConfig,
    /// Per-SM counters.
    pub sm_stats: Vec<SmStats>,
}

/// Precomputed per-instruction metadata for the hot status checks.
struct InstrMeta {
    use_regs: Vec<u8>,
    use_preds: u8,
    wait_mask: u8,
    def_regs: Vec<u8>,
    def_preds: u8,
    fixed_lat: Option<u32>,
    pipe: Pipe,
    throttled_mem: bool,
    reconv: Option<u64>,
    /// Program index of the fall-through instruction (`NO_IDX` when the
    /// instruction is the last of its function).
    next_idx: u32,
    /// Program index of the static branch/call target (`NO_IDX` for
    /// non-control instructions or targets outside the program).
    target_idx: u32,
}

/// Sentinel for "no instruction index" in the control-flow index tables.
const NO_IDX: u32 = u32::MAX;

/// A module lowered to flat arrays for simulation.
///
/// Building one clones every instruction and runs reconvergence analysis
/// (CFG + postdominators per function) — expensive enough that repeat
/// launches should reuse a compiled program instead of re-lowering:
/// compile once with [`GpuSim::compile`] (or let a pipeline `Session`
/// cache it per module artifact) and launch with
/// [`GpuSim::launch_compiled`].
pub struct CompiledProgram {
    entry: String,
    module_name: String,
    isa_arch: String,
    arch_name: String,
    instrs: Vec<Instruction>,
    meta: Vec<InstrMeta>,
    pcs: Vec<u64>,
    /// Per-function contiguous PC ranges `(base, end, first_idx)`, sorted
    /// by base — the hot pc→index lookup for dynamic control flow (the
    /// exact pc→index map lives only at build time, for entry lookup and
    /// static target resolution).
    ranges: Vec<(u64, u64, u32)>,
    entry_pc: u64,
    entry_idx: u32,
    /// Registers the program can touch (max operand register + 1), so
    /// warps allocate register files sized to the kernel instead of the
    /// full 256-row architectural file.
    nregs: usize,
}

impl CompiledProgram {
    /// Lowers `entry` of `module` for simulation on `arch`.
    ///
    /// # Errors
    ///
    /// Fails on unlinked modules and unknown kernels.
    pub fn build(module: &Module, entry: &str, arch: &ArchConfig) -> Result<Self> {
        if !module.is_linked() {
            return Err(SimError::UnlinkedModule);
        }
        let entry_fn = module
            .function(entry)
            .filter(|f| f.visibility == Visibility::Global)
            .ok_or_else(|| SimError::UnknownKernel(entry.to_string()))?;
        let entry_pc = entry_fn.base;
        let lat = LatencyTable::for_arch(arch);
        let reconv_map = build_reconvergence(module);
        let mut instrs = Vec::new();
        let mut meta: Vec<InstrMeta> = Vec::new();
        let mut pcs = Vec::new();
        let mut ranges = Vec::new();
        let mut pc2idx = HashMap::new();
        let mut nregs: usize = 8;
        for f in &module.functions {
            if !f.is_empty() {
                ranges.push((f.base, f.end(), instrs.len() as u32));
            }
            for (i, instr) in f.instrs.iter().enumerate() {
                let pc = f.pc_of(i);
                pc2idx.insert(pc, instrs.len() as u32);
                pcs.push(pc);
                let mut use_regs = Vec::new();
                let mut use_preds = 0u8;
                let mut def_regs = Vec::new();
                let mut def_preds = 0u8;
                for s in instr.uses() {
                    match s {
                        Slot::Reg(r) => use_regs.push(r.index()),
                        Slot::Pred(p) => use_preds |= 1 << p.index(),
                        Slot::Bar(_) => {}
                    }
                }
                for s in instr.defs() {
                    match s {
                        Slot::Reg(r) => def_regs.push(r.index()),
                        Slot::Pred(p) => def_preds |= 1 << p.index(),
                        Slot::Bar(_) => {}
                    }
                }
                for op in instr.srcs.iter().chain(instr.dsts.iter()) {
                    for r in op.src_regs().into_iter().chain(op.dst_regs()) {
                        if !r.is_zero() {
                            nregs = nregs.max(r.index() as usize + 1);
                        }
                    }
                }
                let space = instr.opcode.mem_space();
                meta.push(InstrMeta {
                    use_regs,
                    use_preds,
                    wait_mask: instr.ctrl.wait_mask,
                    def_regs,
                    def_preds,
                    fixed_lat: lat.fixed_latency(instr),
                    pipe: instr.opcode.pipe(),
                    throttled_mem: matches!(space, Some(MemSpace::Global) | Some(MemSpace::Local)),
                    reconv: reconv_map.get(&pc).copied(),
                    next_idx: if i + 1 < f.instrs.len() { instrs.len() as u32 + 1 } else { NO_IDX },
                    target_idx: NO_IDX,
                });
                instrs.push(instr.clone());
            }
        }
        // Second pass: resolve static branch/call targets now that the
        // whole index space exists (calls may target later functions).
        for (m, instr) in meta.iter_mut().zip(&instrs) {
            if matches!(instr.opcode, Opcode::Bra | Opcode::Cal) {
                if let Some(t) = instr.branch_target() {
                    m.target_idx = pc2idx.get(&t).copied().unwrap_or(NO_IDX);
                }
            }
        }
        let entry_idx = pc2idx[&entry_pc];
        Ok(CompiledProgram {
            entry: entry.to_string(),
            module_name: module.name.clone(),
            isa_arch: module.arch.clone(),
            arch_name: arch.name.clone(),
            instrs,
            meta,
            pcs,
            ranges,
            entry_pc,
            entry_idx,
            nregs,
        })
    }

    /// The entry (kernel) function name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The source module's name.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// The source module's ISA architecture tag.
    pub fn isa_arch(&self) -> &str {
        &self.isa_arch
    }

    /// Instruction index for an absolute PC via the per-function range
    /// table (dynamic control flow: returns, reconvergence).
    fn idx_of_pc(&self, pc: u64) -> Option<u32> {
        let i = self.ranges.partition_point(|&(base, _, _)| base <= pc);
        let &(base, end, first_idx) = self.ranges.get(i.checked_sub(1)?)?;
        if pc >= end {
            return None;
        }
        let off = pc - base;
        if !off.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        Some(first_idx + (off / INSTR_BYTES) as u32)
    }
}

struct BlockCtx {
    block_id: u32,
    smem: Vec<u8>,
    total_warps: u32,
    done_warps: u32,
    arrived: u32,
}

const N_PIPES: usize = 7;

fn pipe_idx(p: Pipe) -> usize {
    match p {
        Pipe::Alu => 0,
        Pipe::Fma => 1,
        Pipe::Fp64 => 2,
        Pipe::Sfu => 3,
        Pipe::Lsu => 4,
        Pipe::Branch => 5,
        Pipe::Misc => 6,
    }
}

struct Sm {
    id: u32,
    block_slots: Vec<Option<BlockCtx>>,
    warps: Vec<WarpState>,
    sched_warps: Vec<Vec<usize>>,
    icache: DirectCache,
    inflight: Vec<(u64, u32)>,
    inflight_count: u32,
    /// Earliest completion among `inflight` (`u64::MAX` when empty) — the
    /// retire sweep runs only when something can actually retire.
    next_retire: u64,
    /// Per-scheduler lower bound on the next cycle it could issue: the
    /// event-driven core skips a scheduler's warp scan entirely while its
    /// bound lies in the future, and the main loop jumps the clock to the
    /// minimum bound. Invalidated (lowered) whenever another warp's issue
    /// can wake this scheduler's warps: barrier release and block starts.
    sched_next_ready: Vec<u64>,
    ifetch_fill_free: u64,
    pipe_free: Vec<u64>,
    rr_issue: Vec<usize>,
    rr_sample: Vec<usize>,
    /// Timed memory-hierarchy state (`None` under the flat model). Its
    /// servers obey the same bound-validity contract as `inflight`:
    /// occupancy rises only at issues and falls at times fixed at
    /// admission, so event-core bounds built from `clear_time` remain
    /// valid lower bounds.
    hier: Option<SmHier>,
    stats: SmStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Stalled(StallReason),
    NotResident,
}

/// The simulated device. Owns global memory and constant banks across
/// launches so hosts can initialize inputs, launch, and read back results.
#[derive(Debug)]
pub struct GpuSim {
    arch: ArchConfig,
    cfg: SimConfig,
    global: GlobalMem,
    user_banks: Vec<(u8, Vec<u8>)>,
}

impl GpuSim {
    /// Creates a device.
    pub fn new(arch: ArchConfig, cfg: SimConfig) -> Self {
        GpuSim { arch, cfg, global: GlobalMem::new(), user_banks: Vec::new() }
    }

    /// The machine description.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The simulator knobs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable simulator knobs (e.g. to change the sampling period).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Device global memory (read back results).
    pub fn global(&self) -> &GlobalMem {
        &self.global
    }

    /// Device global memory (host-side initialization).
    pub fn global_mut(&mut self) -> &mut GlobalMem {
        &mut self.global
    }

    /// Sets a user constant bank (bank 0 is reserved for kernel params).
    pub fn set_const_bank(&mut self, bank: u8, data: Vec<u8>) {
        self.user_banks.retain(|(b, _)| *b != bank);
        self.user_banks.push((bank, data));
    }

    /// Lowers `entry` from `module` once for this device's architecture.
    /// The result is shareable ([`Arc`]) and reusable across launches and
    /// across devices configured with the same architecture — callers
    /// that launch the same kernel repeatedly should compile once and use
    /// [`GpuSim::launch_compiled`].
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels or unlinked modules.
    pub fn compile(&self, module: &Module, entry: &str) -> Result<Arc<CompiledProgram>> {
        CompiledProgram::build(module, entry, &self.arch).map(Arc::new)
    }

    /// Launches `entry` from `module` and runs it to completion, with
    /// the default at-source aggregating sample sink: the result carries
    /// a [`SampleSet`], never a raw sample buffer.
    ///
    /// `params` fills constant bank 0 (kernel parameters: buffer addresses
    /// and scalars, little-endian).
    ///
    /// # Errors
    ///
    /// Fails on unknown kernels, unlinked modules, zero-sized launches,
    /// functional faults, or exceeding the cycle budget.
    pub fn launch(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<LaunchResult> {
        let prog = CompiledProgram::build(module, entry, &self.arch)?;
        self.launch_compiled(&prog, launch, params)
    }

    /// [`GpuSim::launch`] with a caller-supplied [`SampleSink`]: every
    /// raw sample streams into `sink` and `LaunchResult::samples` stays
    /// empty. Pass a `Vec<RawSample>` to buffer the raw stream (tests,
    /// per-sample inspection, differential checks).
    ///
    /// # Errors
    ///
    /// Same as [`GpuSim::launch`].
    pub fn launch_with_sink(
        &mut self,
        module: &Module,
        entry: &str,
        launch: &LaunchConfig,
        params: &[u8],
        sink: &mut dyn SampleSink,
    ) -> Result<LaunchResult> {
        let prog = CompiledProgram::build(module, entry, &self.arch)?;
        self.launch_compiled_with_sink(&prog, launch, params, sink)
    }

    /// Launches an already-compiled program (see [`GpuSim::compile`]),
    /// skipping the per-launch lowering work. Samples aggregate into the
    /// result's [`SampleSet`].
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch, zero-sized launches, functional
    /// faults, or exceeding the cycle budget.
    pub fn launch_compiled(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
    ) -> Result<LaunchResult> {
        let mut set = SampleSet::new();
        let mut result = self.launch_compiled_with_sink(prog, launch, params, &mut set)?;
        result.samples = set;
        Ok(result)
    }

    /// [`GpuSim::launch_compiled`] with a caller-supplied [`SampleSink`]
    /// (the result's own `samples` set stays empty).
    ///
    /// # Errors
    ///
    /// Same as [`GpuSim::launch_compiled`].
    pub fn launch_compiled_with_sink(
        &mut self,
        prog: &CompiledProgram,
        launch: &LaunchConfig,
        params: &[u8],
        sink: &mut dyn SampleSink,
    ) -> Result<LaunchResult> {
        if prog.arch_name != self.arch.name {
            return Err(SimError::BadLaunch(format!(
                "program compiled for arch `{}`, device is `{}`",
                prog.arch_name, self.arch.name
            )));
        }
        if launch.grid_blocks == 0 || launch.block_threads == 0 {
            return Err(SimError::BadLaunch("empty grid or block".into()));
        }
        if launch.block_threads > self.arch.max_threads_per_block {
            return Err(SimError::BadLaunch(format!(
                "{} threads per block exceeds the {} limit",
                launch.block_threads, self.arch.max_threads_per_block
            )));
        }
        let occupancy = self.arch.occupancy(launch);
        let wpb = launch.warps_per_block(self.arch.warp_size);
        let mut consts = ConstMem::new();
        consts.set_bank(0, params.to_vec());
        for (b, data) in &self.user_banks {
            consts.set_bank(*b, data.clone());
        }

        let slots = occupancy.blocks_per_sm.max(1) as usize;
        let nsched = self.arch.schedulers_per_sm as usize;

        // Build SMs and distribute initial blocks breadth-first.
        let mut sms: Vec<Sm> = (0..self.arch.num_sms)
            .map(|id| {
                let mut sched_warps = vec![Vec::new(); nsched];
                let total_warps = slots * wpb as usize;
                for wi in 0..total_warps {
                    sched_warps[wi % nsched].push(wi);
                }
                Sm {
                    id,
                    block_slots: (0..slots).map(|_| None).collect(),
                    warps: (0..total_warps)
                        .map(|wi| {
                            WarpState::new(
                                wi as u32,
                                (wi % nsched) as u32,
                                wi / wpb as usize,
                                (wi % wpb as usize) as u32,
                                launch.block_threads,
                                prog.nregs,
                            )
                        })
                        .collect(),
                    sched_warps,
                    icache: DirectCache::new(self.arch.icache_size, self.arch.icache_line),
                    inflight: Vec::new(),
                    inflight_count: 0,
                    next_retire: u64::MAX,
                    sched_next_ready: vec![0; nsched],
                    ifetch_fill_free: 0,
                    pipe_free: vec![0; nsched * N_PIPES],
                    rr_issue: vec![0; nsched],
                    rr_sample: vec![0; nsched],
                    hier: match &self.arch.mem {
                        MemModel::Flat => None,
                        MemModel::Hierarchy(h) => Some(SmHier::new(h)),
                    },
                    stats: SmStats::default(),
                }
            })
            .collect();

        let mut st = LaunchState {
            prog,
            arch: &self.arch,
            cfg: &self.cfg,
            launch,
            wpb,
            nsched,
            global: &mut self.global,
            consts,
            l2: DirectCache::new(self.arch.l2_size, self.arch.l2_line),
            next_block: 0,
            blocks_done: 0,
            sink,
            issue_counts: vec![0; prog.instrs.len()],
            issued_total: 0,
            mem_transactions: 0,
            icache_misses: 0,
        };
        for slot in 0..slots {
            for sm in &mut sms {
                if st.next_block < launch.grid_blocks {
                    start_block(sm, slot, st.next_block, wpb, launch, prog, 0);
                    st.next_block += 1;
                }
            }
        }

        let period = self.cfg.sampling_period as u64;
        let phase = self.cfg.sampling_phase as u64;
        let mut cycle: u64 = 0;
        while st.blocks_done < launch.grid_blocks {
            if cycle > self.cfg.max_cycles {
                return Err(SimError::CycleLimit(self.cfg.max_cycles));
            }
            for sm in &mut sms {
                st.step_sm(sm, cycle)?;
            }
            cycle += 1;
            // Event-driven advance: every scheduler now carries a lower
            // bound on its next possible issue cycle, so nothing can
            // change before the earliest bound — jump the clock straight
            // there, stopping at sampling ticks so the sample stream
            // stays identical to the dense loop.
            if !self.cfg.dense_reference && st.blocks_done < launch.grid_blocks {
                let mut next = u64::MAX;
                for sm in &sms {
                    for &bound in &sm.sched_next_ready {
                        next = next.min(bound);
                    }
                }
                // Smallest sampling tick (phase + m·period) at or after
                // the current cycle.
                let next_tick = if period == 0 {
                    u64::MAX
                } else if cycle <= phase {
                    phase
                } else {
                    phase + (cycle - phase).div_ceil(period).saturating_mul(period)
                };
                // A jump past the budget still errors deterministically:
                // clamp to max_cycles + 1 and let the loop-top check fire
                // exactly as the dense loop would.
                cycle = next.min(next_tick).max(cycle).min(self.cfg.max_cycles.saturating_add(1));
            }
        }

        let (l2_hits, l2_misses) = st.l2.stats();
        Ok(LaunchResult {
            cycles: cycle,
            issued: st.issued_total,
            samples: SampleSet::new(),
            issue_counts: prog
                .pcs
                .iter()
                .zip(st.issue_counts.iter())
                .filter(|(_, &c)| c > 0)
                .map(|(&pc, &c)| (pc, c))
                .collect(),
            mem_transactions: st.mem_transactions,
            l2_hits,
            l2_misses,
            icache_misses: st.icache_misses,
            occupancy,
            launch: *launch,
            sm_stats: sms.iter().map(|s| s.stats).collect(),
        })
    }
}

/// Per-launch mutable state shared by the cycle stepper and issue path
/// (everything except the SMs themselves, which are borrowed per call).
struct LaunchState<'a> {
    prog: &'a CompiledProgram,
    arch: &'a ArchConfig,
    cfg: &'a SimConfig,
    launch: &'a LaunchConfig,
    wpb: u32,
    nsched: usize,
    global: &'a mut GlobalMem,
    consts: ConstMem,
    l2: DirectCache,
    next_block: u32,
    blocks_done: u32,
    sink: &'a mut dyn SampleSink,
    issue_counts: Vec<u64>,
    issued_total: u64,
    mem_transactions: u64,
    icache_misses: u64,
}

impl LaunchState<'_> {
    /// Runs one cycle on one SM: retire memory requests, then give each
    /// scheduler one issue opportunity (sampling the designated scheduler
    /// first, pre-issue, so samples see the cycle's initial state).
    ///
    /// In the event-driven core a scheduler whose next-ready bound lies
    /// in the future is skipped without touching its warps — it provably
    /// cannot issue, which is exactly what the dense scan would conclude
    /// the slow way. Full stall classification runs only for the sampled
    /// warp on sampling ticks.
    fn step_sm(&mut self, sm: &mut Sm, cycle: u64) -> Result<()> {
        // Retire completed memory requests — only when something can
        // actually complete this cycle.
        if sm.next_retire <= cycle {
            let mut next = u64::MAX;
            sm.inflight.retain(|&(done, n)| {
                if done <= cycle {
                    sm.inflight_count -= n;
                    false
                } else {
                    next = next.min(done);
                    true
                }
            });
            sm.next_retire = next;
        }
        if let Some(h) = &mut sm.hier {
            h.retire(cycle);
        }
        let period = self.cfg.sampling_period as u64;
        let phase = self.cfg.sampling_phase as u64;
        let sample_due = period > 0 && cycle >= phase && (cycle - phase).is_multiple_of(period);
        let sample_sched = if period == 0 || cycle < phase {
            0
        } else {
            (((cycle - phase) / period) as usize) % self.nsched
        };
        for sched in 0..self.nsched {
            // Pre-issue snapshot of the warp this scheduler would sample,
            // so samples see the cycle's initial state.
            let sampled = if sample_due && sched == sample_sched {
                pick_sample_warp(sm, sched)
            } else {
                None
            };
            let sampled_status =
                sampled.map(|wi| (wi, classify(sm, wi, self.prog, cycle, self.arch)));
            let issued_warp = if self.cfg.dense_reference {
                self.dense_issue_scan(sm, sched, cycle, sampled_status)
            } else if sm.sched_next_ready[sched] <= cycle {
                self.event_issue_scan(sm, sched, cycle)
            } else {
                None // Provably stalled until the bound: skip the scan.
            };
            if let Some(wi) = issued_warp {
                self.issue_one(sm, wi, cycle)?;
                if !self.cfg.dense_reference {
                    // One issue per scheduler per cycle; rescan next cycle.
                    sm.sched_next_ready[sched] = cycle + 1;
                }
            }
            if let Some((wi, status)) = sampled_status {
                let w = &sm.warps[wi];
                let stall = if issued_warp == Some(wi) {
                    StallReason::Selected
                } else {
                    match status {
                        Status::Ready => StallReason::NotSelected,
                        Status::Stalled(r) => r,
                        Status::NotResident => StallReason::Other,
                    }
                };
                self.sink.record(RawSample {
                    sm: sm.id,
                    scheduler: sched as u32,
                    cycle,
                    pc: w.pc,
                    stall,
                    scheduler_active: issued_warp.is_some(),
                });
            }
        }
        Ok(())
    }

    /// The dense reference scan: classify warps round-robin, first ready
    /// wins (reusing the sampled warp's status instead of re-evaluating).
    fn dense_issue_scan(
        &self,
        sm: &mut Sm,
        sched: usize,
        cycle: u64,
        sampled_status: Option<(usize, Status)>,
    ) -> Option<usize> {
        let list_len = sm.sched_warps[sched].len();
        for k in 0..list_len {
            let pos = (sm.rr_issue[sched] + k) % list_len;
            let wi = sm.sched_warps[sched][pos];
            let ready = match sampled_status {
                Some((swi, status)) if swi == wi => status == Status::Ready,
                _ => classify(sm, wi, self.prog, cycle, self.arch) == Status::Ready,
            };
            if ready {
                sm.rr_issue[sched] = (pos + 1) % list_len;
                return Some(wi);
            }
        }
        None
    }

    /// The event-core scan: fold each warp's cheap readiness horizon in
    /// round-robin order; the first warp whose horizon has arrived issues.
    /// When none has, the fold's minimum becomes the scheduler's
    /// next-ready bound — the cycles in between cannot issue and are
    /// never scanned again.
    fn event_issue_scan(&self, sm: &mut Sm, sched: usize, cycle: u64) -> Option<usize> {
        // All memory back-pressure gates the same instructions
        // (`throttled_mem`), so their clear times fold into one horizon.
        let mut throttle_clear = throttle_clear_time(sm, self.arch);
        if let Some(h) = &sm.hier {
            throttle_clear = throttle_clear.max(h.mshr.clear_time()).max(h.l2q.clear_time());
        }
        let list_len = sm.sched_warps[sched].len();
        let mut earliest = u64::MAX;
        for k in 0..list_len {
            let pos = (sm.rr_issue[sched] + k) % list_len;
            let wi = sm.sched_warps[sched][pos];
            let t = ready_at(sm, wi, self.prog, throttle_clear);
            if t <= cycle {
                sm.rr_issue[sched] = (pos + 1) % list_len;
                return Some(wi);
            }
            earliest = earliest.min(t);
        }
        sm.sched_next_ready[sched] = earliest;
        None
    }

    /// Issues warp `wi`'s next instruction: functional execution, result
    /// latency bookkeeping, control flow, and block lifecycle.
    fn issue_one(&mut self, sm: &mut Sm, wi: usize, now: u64) -> Result<()> {
        let prog = self.prog;
        let idx = sm.warps[wi].cur_idx as usize;
        let instr = &prog.instrs[idx];
        let meta = &prog.meta[idx];

        // Functional execution.
        let res = {
            let warps = &mut sm.warps;
            let blocks = &mut sm.block_slots;
            let warp = &mut warps[wi];
            let block = blocks[warp.block_slot].as_mut().expect("resident warp has a block");
            let mut ctx = ExecCtx {
                global: self.global,
                smem: &mut block.smem,
                consts: &self.consts,
                block_id: block.block_id,
                grid_blocks: self.launch.grid_blocks,
                block_threads: self.launch.block_threads,
            };
            execute(warp, instr, meta.reconv, &mut ctx)?
        };

        self.issue_counts[idx] += 1;
        self.issued_total += 1;
        sm.stats.issued += 1;

        // Result latency and blame classification.
        let (lat, reason) = if let Some(l) = meta.fixed_lat {
            (l, StallReason::ExecutionDependency)
        } else if let Some(mem) = &res.mem {
            let (lat, txns, reason) = match sm.hier.as_mut() {
                Some(h) => mem_latency_hier(h, &mut self.l2, self.arch, self.cfg, mem, instr, now),
                None => mem_latency(&mut self.l2, self.arch, self.cfg, mem, instr),
            };
            if txns > 0 {
                let done_at = now + lat as u64;
                // Keep the queue ordered by completion time so the
                // throttle-clear fold below is a plain prefix scan.
                let pos = sm.inflight.partition_point(|&(d, _)| d <= done_at);
                sm.inflight.insert(pos, (done_at, txns));
                sm.inflight_count += txns;
                sm.next_retire = sm.next_retire.min(done_at);
                self.mem_transactions += txns as u64;
            }
            (lat, reason)
        } else {
            // Non-memory variable latency.
            let lat = match instr.opcode {
                Opcode::Mufu => self.cfg.mufu_latency,
                Opcode::S2r => self.cfg.s2r_latency,
                Opcode::Shfl => self.cfg.shfl_latency,
                _ => 8,
            };
            (lat, StallReason::ExecutionDependency)
        };

        let w = &mut sm.warps[wi];
        let done_at = now + lat as u64;
        for &r in &meta.def_regs {
            w.reg_ready[r as usize] = done_at;
            w.reg_reason[r as usize] = reason.code();
        }
        if meta.def_preds != 0 {
            for p in 0..7 {
                if meta.def_preds & (1 << p) != 0 {
                    w.pred_ready[p] = done_at;
                }
            }
        }
        if let Some(b) = instr.ctrl.write_barrier {
            w.bar_clear[b.index() as usize] = done_at;
            w.bar_reason[b.index() as usize] = reason.code();
        }
        if let Some(b) = instr.ctrl.read_barrier {
            w.bar_clear[b.index() as usize] = now + self.cfg.war_read_cycles as u64;
            w.bar_reason[b.index() as usize] = StallReason::ExecutionDependency.code();
        }
        w.next_issue = now + instr.ctrl.stall.max(1) as u64;
        let sched = w.scheduler as usize;
        sm.pipe_free[sched * N_PIPES + pipe_idx(meta.pipe)] =
            now + self.arch.pipe_interval(meta.pipe) as u64;

        // Control flow. The next instruction index comes from the
        // precomputed fall-through/target tables; only dynamic edges
        // (returns, reconvergence switches) need a pc lookup.
        let mut redirected = false;
        let mut next_idx = meta.next_idx;
        match res.outcome {
            Outcome::Next => w.pc += INSTR_BYTES,
            Outcome::Jump(t) => {
                w.pc = t;
                next_idx = meta.target_idx;
                redirected = true;
            }
            Outcome::Call(t) => {
                w.call_stack.push(w.pc + INSTR_BYTES);
                w.pc = t;
                next_idx = meta.target_idx;
                redirected = true;
            }
            Outcome::Ret => {
                let ret = w.call_stack.pop().ok_or_else(|| SimError::Fault {
                    pc: w.pc,
                    message: "RET on empty stack".into(),
                })?;
                w.pc = ret;
                next_idx = prog.idx_of_pc(ret).unwrap_or(NO_IDX);
                redirected = true;
            }
            Outcome::Sync => {
                w.pc += INSTR_BYTES;
                w.at_barrier = true;
            }
            Outcome::Exit => {
                w.done = true;
            }
        }
        w.prev_was_ctrl = redirected;
        if redirected {
            w.next_issue = w.next_issue.max(now + self.arch.lat_branch_redirect as u64);
        }
        if !w.done {
            if w.reconverge_if_needed() {
                next_idx = prog.idx_of_pc(w.pc).unwrap_or(NO_IDX);
            }
            let pc = w.pc;
            if next_idx == NO_IDX {
                return Err(SimError::Fault {
                    pc,
                    message: "control flow left the program".into(),
                });
            }
            w.cur_idx = next_idx;
            if !sm.icache.access(pc) {
                // One fill port per SM: concurrent misses queue behind each
                // other, so i-cache thrash throttles the whole SM.
                let start = sm.ifetch_fill_free.max(now);
                let ready = start + self.arch.lat_ifetch_miss as u64;
                sm.ifetch_fill_free = ready;
                sm.warps[wi].fetch_ready = ready;
                self.icache_misses += 1;
            }
        }
        refresh_horizon(&mut sm.warps[wi], prog);

        // Block barrier / completion bookkeeping.
        let slot = sm.warps[wi].block_slot;
        match res.outcome {
            Outcome::Sync => {
                let block = sm.block_slots[slot].as_mut().expect("resident block");
                block.arrived += 1;
                try_release_barrier(sm, slot, now, prog);
            }
            Outcome::Exit => {
                let block = sm.block_slots[slot].as_mut().expect("resident block");
                block.done_warps += 1;
                if block.done_warps >= block.total_warps {
                    sm.block_slots[slot] = None;
                    self.blocks_done += 1;
                    if self.next_block < self.launch.grid_blocks {
                        let b = self.next_block;
                        self.next_block += 1;
                        start_block(
                            sm,
                            slot,
                            b,
                            self.wpb,
                            self.launch,
                            prog,
                            now + self.cfg.block_launch_overhead as u64,
                        );
                    }
                } else {
                    try_release_barrier(sm, slot, now, prog);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

fn start_block(
    sm: &mut Sm,
    slot: usize,
    block_id: u32,
    wpb: u32,
    launch: &LaunchConfig,
    prog: &CompiledProgram,
    start_cycle: u64,
) {
    sm.block_slots[slot] = Some(BlockCtx {
        block_id,
        smem: vec![0u8; launch.smem_per_block as usize],
        total_warps: wpb,
        done_warps: 0,
        arrived: 0,
    });
    sm.stats.blocks += 1;
    for w in 0..wpb as usize {
        let wi = slot * wpb as usize + w;
        let warp = &mut sm.warps[wi];
        let scheduler = warp.scheduler;
        *warp =
            WarpState::new(wi as u32, scheduler, slot, w as u32, launch.block_threads, prog.nregs);
        warp.pc = prog.entry_pc;
        warp.cur_idx = prog.entry_idx;
        warp.next_issue = start_cycle;
        refresh_horizon(warp, prog);
        // Fresh warps invalidate their scheduler's next-ready bound.
        let bound = &mut sm.sched_next_ready[scheduler as usize];
        *bound = (*bound).min(start_cycle);
    }
}

/// Picks the warp a scheduler samples this period (round-robin over
/// resident warps). Returns `None` when the scheduler has no resident warp.
fn pick_sample_warp(sm: &mut Sm, sched: usize) -> Option<usize> {
    let list = &sm.sched_warps[sched];
    if list.is_empty() {
        return None;
    }
    for k in 0..list.len() {
        let pos = (sm.rr_sample[sched] + k) % list.len();
        let wi = list[pos];
        let resident = !sm.warps[wi].done && sm.block_slots[sm.warps[wi].block_slot].is_some();
        if resident {
            sm.rr_sample[sched] = (pos + 1) % list.len();
            return Some(wi);
        }
    }
    None
}

/// Full warp-status classification: whether `wi` can issue at `now`, and
/// if not, the CUPTI-style stall reason a sample would report.
///
/// Must stay in lock-step with [`ready_at`]: for any frozen machine state,
/// `classify(..) == Ready` exactly when `ready_at(..) <= now` (the
/// dense-vs-event differential tests enforce this across the whole suite).
fn classify(sm: &Sm, wi: usize, prog: &CompiledProgram, now: u64, arch: &ArchConfig) -> Status {
    let w = &sm.warps[wi];
    if w.done || sm.block_slots[w.block_slot].is_none() {
        return Status::NotResident;
    }
    if w.at_barrier {
        return Status::Stalled(StallReason::Synchronization);
    }
    if w.fetch_ready > now {
        return Status::Stalled(StallReason::InstructionFetch);
    }
    if w.next_issue > now {
        return Status::Stalled(if w.prev_was_ctrl {
            StallReason::InstructionFetch
        } else {
            StallReason::ExecutionDependency
        });
    }
    let meta = &prog.meta[w.cur_idx as usize];
    // Scoreboard barriers named in the wait mask.
    if meta.wait_mask != 0 {
        for b in 0..6 {
            if meta.wait_mask & (1 << b) != 0 && w.bar_clear[b] > now {
                let r = StallReason::from_code(w.bar_reason[b])
                    .unwrap_or(StallReason::ExecutionDependency);
                return Status::Stalled(r);
            }
        }
    }
    // Register/predicate interlock.
    for &r in &meta.use_regs {
        if w.reg_ready[r as usize] > now {
            let reason = StallReason::from_code(w.reg_reason[r as usize])
                .unwrap_or(StallReason::ExecutionDependency);
            return Status::Stalled(reason);
        }
    }
    if meta.use_preds != 0 {
        for p in 0..7 {
            if meta.use_preds & (1 << p) != 0 && w.pred_ready[p] > now {
                return Status::Stalled(StallReason::ExecutionDependency);
            }
        }
    }
    // Memory back-pressure: hierarchy servers first (more specific), then
    // the LSU limit. Each arm mirrors a `clear_time` term in [`ready_at`].
    if meta.throttled_mem {
        if let Some(h) = &sm.hier {
            if h.mshr.is_full() {
                return Status::Stalled(StallReason::MshrFull);
            }
            if h.l2q.is_full() {
                return Status::Stalled(StallReason::L2Queue);
            }
        }
        if sm.inflight_count >= arch.max_mem_inflight_per_sm {
            return Status::Stalled(StallReason::MemoryThrottle);
        }
    }
    // Pipe throughput.
    let sched = w.scheduler as usize;
    if sm.pipe_free[sched * N_PIPES + pipe_idx(meta.pipe)] > now {
        return Status::Stalled(StallReason::PipeBusy);
    }
    Status::Ready
}

/// The cheap readiness horizon: the earliest cycle `wi` could issue,
/// assuming no other warp's issue wakes it first. `u64::MAX` when only
/// another warp's progress can unblock it (barrier parking, exited).
///
/// Every condition [`classify`] checks is of the form `time >= T` with `T`
/// fixed while the warp's own state is untouched, so the earliest ready
/// cycle is just the max of the clear times. The warp's own terms are
/// cached in [`WarpState::horizon`] (see [`refresh_horizon`]); only the
/// two terms other warps move — the SM throttle clear time and this
/// scheduler's pipe — are folded in live. Events that can lower the
/// horizon from outside (barrier release, block replacement) explicitly
/// invalidate the scheduler bounds built from it; later memory traffic
/// can only *raise* the throttle component, which keeps cached bounds
/// valid lower bounds.
fn ready_at(sm: &Sm, wi: usize, prog: &CompiledProgram, throttle_clear: u64) -> u64 {
    let w = &sm.warps[wi];
    if w.horizon == u64::MAX {
        return u64::MAX;
    }
    let meta = &prog.meta[w.cur_idx as usize];
    let mut t = w.horizon;
    if meta.throttled_mem {
        t = t.max(throttle_clear);
    }
    t.max(sm.pipe_free[w.scheduler as usize * N_PIPES + pipe_idx(meta.pipe)])
}

/// Recomputes a warp's cached own-readiness horizon: the max of its
/// fetch/issue times and the scoreboard entries its next instruction
/// reads, or `u64::MAX` while it is parked or done. Those terms change
/// only when this warp issues, when a barrier release unparks it, and
/// when a block start resets it — the three places that call this.
fn refresh_horizon(w: &mut WarpState, prog: &CompiledProgram) {
    if w.done || w.at_barrier {
        w.horizon = u64::MAX;
        return;
    }
    let mut t = w.fetch_ready.max(w.next_issue);
    let meta = &prog.meta[w.cur_idx as usize];
    if meta.wait_mask != 0 {
        for b in 0..6 {
            if meta.wait_mask & (1 << b) != 0 {
                t = t.max(w.bar_clear[b]);
            }
        }
    }
    for &r in &meta.use_regs {
        t = t.max(w.reg_ready[r as usize]);
    }
    if meta.use_preds != 0 {
        for p in 0..7 {
            if meta.use_preds & (1 << p) != 0 {
                t = t.max(w.pred_ready[p]);
            }
        }
    }
    w.horizon = t;
}

/// Earliest cycle the SM's in-flight memory queue drops below the LSU
/// limit, assuming no new requests are added (frozen machine). The
/// queue is kept sorted by completion time, so this is a prefix scan.
fn throttle_clear_time(sm: &Sm, arch: &ArchConfig) -> u64 {
    if sm.inflight_count < arch.max_mem_inflight_per_sm {
        return 0;
    }
    let mut count = sm.inflight_count;
    for &(done, n) in &sm.inflight {
        count -= n;
        if count < arch.max_mem_inflight_per_sm {
            return done;
        }
    }
    u64::MAX
}

/// Releases a block barrier once every live warp has arrived.
fn try_release_barrier(sm: &mut Sm, slot: usize, now: u64, prog: &CompiledProgram) {
    let Some(block) = sm.block_slots[slot].as_ref() else { return };
    let live = block.total_warps - block.done_warps;
    if live == 0 || block.arrived < live {
        return;
    }
    sm.block_slots[slot].as_mut().expect("checked above").arrived = 0;
    let Sm { warps, sched_next_ready, .. } = sm;
    for w in warps.iter_mut() {
        if w.block_slot == slot && w.at_barrier && !w.done {
            w.at_barrier = false;
            w.next_issue = w.next_issue.max(now + 1);
            refresh_horizon(w, prog);
            // Unparked warps invalidate their scheduler's next-ready
            // bound (it was computed while they looked unwakeable).
            let bound = &mut sched_next_ready[w.scheduler as usize];
            *bound = (*bound).min(now + 1);
        }
    }
}

/// Latency, transaction count, and blame class of one memory access.
fn mem_latency(
    l2: &mut DirectCache,
    arch: &ArchConfig,
    cfg: &SimConfig,
    mem: &crate::exec::MemAccess,
    instr: &Instruction,
) -> (u32, u32, StallReason) {
    match mem.space {
        MemSpace::Global => {
            let mut sectors: Vec<u64> = mem.addrs.iter().map(|a| a >> 5).collect();
            sectors.sort_unstable();
            sectors.dedup();
            let mut worst = 0u32;
            for &s in &sectors {
                let hit = l2.access(s << 5);
                let lat = if hit { arch.lat_global_l2 } else { arch.lat_global_dram };
                worst = worst.max(lat);
            }
            let n = sectors.len() as u32;
            let mut lat = worst + n.saturating_sub(1) * arch.lat_per_extra_transaction;
            if matches!(instr.opcode, Opcode::AtomG) {
                lat += cfg.atom_extra;
            }
            (lat, n, StallReason::MemoryDependency)
        }
        MemSpace::Local => {
            // Thread-private accesses are interleaved by hardware and
            // mostly L1-resident: cheap, well-coalesced traffic.
            let n = (mem.addrs.len() as u32).div_ceil(8).max(1);
            let lat = arch.lat_local + (n - 1) * arch.lat_per_extra_transaction;
            (lat, n, StallReason::MemoryDependency)
        }
        MemSpace::Shared => {
            // Bank conflicts serialize.
            let mut banks = [0u8; 32];
            for a in &mem.addrs {
                banks[((a / 4) % 32) as usize] += 1;
            }
            let conflict = banks.iter().copied().max().unwrap_or(1).max(1) as u32;
            let mut lat = arch.lat_shared + (conflict - 1) * 2;
            if matches!(instr.opcode, Opcode::AtomS) {
                lat += cfg.atom_extra;
            }
            (lat, 0, StallReason::ExecutionDependency)
        }
        MemSpace::Constant => (arch.lat_constant, 0, StallReason::MemoryDependency),
    }
}

/// [`mem_latency`] under the timed hierarchy: global accesses probe the
/// per-SM L1 sector by sector, misses occupy an MSHR and an L2-queue slot
/// until the access completes, and blame sharpens to `Uncoalesced` /
/// `BankConflict` where the access pattern (not the memory system) is the
/// problem. Local and constant traffic keeps the flat charging — it is
/// L1-resident/broadcast by construction and carries no advice signal.
fn mem_latency_hier(
    hier: &mut SmHier,
    l2: &mut DirectCache,
    arch: &ArchConfig,
    cfg: &SimConfig,
    mem: &crate::exec::MemAccess,
    instr: &Instruction,
    now: u64,
) -> (u32, u32, StallReason) {
    match mem.space {
        MemSpace::Global => {
            let line = hier.cfg.l1_line.max(1) as u64;
            let mut sectors: Vec<u64> = mem.addrs.iter().map(|a| a / line).collect();
            sectors.sort_unstable();
            sectors.dedup();
            let mut worst = 0u32;
            let mut misses = 0u32;
            for &s in &sectors {
                let addr = s * line;
                let lat = if hier.l1.access(addr) {
                    hier.cfg.lat_l1_hit
                } else {
                    misses += 1;
                    if l2.access(addr) {
                        arch.lat_global_l2
                    } else {
                        arch.lat_global_dram
                    }
                };
                worst = worst.max(lat);
            }
            let n = sectors.len() as u32;
            let mut lat = worst + n.saturating_sub(1) * arch.lat_per_extra_transaction;
            if matches!(instr.opcode, Opcode::AtomG) {
                lat += cfg.atom_extra;
            }
            if misses > 0 {
                let done_at = now + lat as u64;
                hier.mshr.admit(done_at, misses);
                hier.l2q.admit(done_at, misses);
            }
            let reason = if n >= hier.cfg.uncoalesced_sectors {
                StallReason::Uncoalesced
            } else {
                StallReason::MemoryDependency
            };
            (lat, n, reason)
        }
        MemSpace::Shared => {
            let mut banks = [0u8; 32];
            for a in &mem.addrs {
                banks[((a / 4) % 32) as usize] += 1;
            }
            let conflict = banks.iter().copied().max().unwrap_or(1).max(1) as u32;
            let mut lat = arch.lat_shared + (conflict - 1) * hier.cfg.smem_bank_interval;
            if matches!(instr.opcode, Opcode::AtomS) {
                lat += cfg.atom_extra;
            }
            let reason = if conflict >= 2 {
                StallReason::BankConflict
            } else {
                StallReason::ExecutionDependency
            };
            (lat, 0, reason)
        }
        MemSpace::Local | MemSpace::Constant => mem_latency(l2, arch, cfg, mem, instr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    fn sim(sms: u32) -> GpuSim {
        GpuSim::new(ArchConfig::small(sms), SimConfig::default())
    }

    fn params_u64(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// out[i] = a[i] + b[i], global index = ctaid*ntid + tid.
    /// Params: a, b, out (u64 each).
    const VEC_ADD: &str = r#"
.module vecadd
.kernel vecadd
  S2R R0, SR_TID.X {W:B0, S:1}
  S2R R12, SR_CTAID.X {W:B1, S:1}
  S2R R14, SR_NTID.X {W:B2, S:1}
  IMAD R0, R12, R14, R0 {WT:[B0,B1,B2], S:5}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  MOV R4, c[0][8] {S:1}
  MOV R5, c[0][12] {S:1}
  MOV R6, c[0][16] {S:1}
  MOV R7, c[0][20] {S:1}
  SHL R1, R0, 2 {S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  IADD R4:R5, R4:R5, R1 {S:2}
  IADD R6:R7, R6:R7, R1 {S:2}
  LDG.E.32 R8, [R2:R3] {W:B1, S:1}
  LDG.E.32 R9, [R4:R5] {W:B2, S:1}
  IADD R10, R8, R9 {WT:[B1,B2], S:4}
  STG.E.32 [R6:R7], R10 {R:B3, S:1}
  EXIT {WT:[B3], S:1}
.endfunc
"#;

    #[test]
    fn vector_add_correct() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        let a = gpu.global_mut().alloc(4 * 32);
        let b = gpu.global_mut().alloc(4 * 32);
        let out = gpu.global_mut().alloc(4 * 32);
        for i in 0..32u64 {
            gpu.global_mut().write_u32(a + 4 * i, i as u32);
            gpu.global_mut().write_u32(b + 4 * i, 100 + i as u32);
        }
        let r =
            gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&[a, b, out])).unwrap();
        for i in 0..32u64 {
            assert_eq!(gpu.global().read_u32(out + 4 * i), 100 + 2 * i as u32);
        }
        assert!(r.cycles > 200, "two dependent global loads cost at least L2 latency");
        assert_eq!(r.issued, 19);
        assert!(r.mem_transactions >= 3, "three warp-wide coalesced accesses");
    }

    #[test]
    fn deterministic_across_runs() {
        let m = parse_module(VEC_ADD).unwrap();
        let run = || {
            let mut gpu = sim(2);
            let a = gpu.global_mut().alloc(4 * 64);
            let b = gpu.global_mut().alloc(4 * 64);
            let out = gpu.global_mut().alloc(4 * 64);
            let r = gpu
                .launch(&m, "vecadd", &LaunchConfig::new(2, 32), &params_u64(&[a, b, out]))
                .unwrap();
            (r.cycles, r.issued, r.samples.total_samples())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unknown_kernel_and_bad_launch() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        assert!(matches!(
            gpu.launch(&m, "nope", &LaunchConfig::new(1, 32), &[]),
            Err(SimError::UnknownKernel(_))
        ));
        assert!(matches!(
            gpu.launch(&m, "vecadd", &LaunchConfig::new(0, 32), &[]),
            Err(SimError::BadLaunch(_))
        ));
        assert!(matches!(
            gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 4096), &[]),
            Err(SimError::BadLaunch(_))
        ));
    }

    /// Two warps; warp 0 spins longer before the barrier, so warp 1
    /// accumulates synchronization stalls.
    const BARRIER: &str = r#"
.module barrier
.kernel barrier
  S2R R0, SR_TID.X {W:B0, S:1}
  SHR R1, R0, 5 {WT:[B0], S:2}       # warp id
  ISETP.EQ.AND P0, R1, 0 {S:2}
  MOV32I R2, 0 {S:1}
  @!P0 BRA join {S:5}
loop:
  IADD R2, R2, 1 {S:4}
  ISETP.LT.AND P1, R2, 200 {S:2}
  @P1 BRA loop {S:5}
join:
  BAR.SYNC {S:2}
  EXIT
.endfunc
"#;

    #[test]
    fn barrier_synchronizes_and_stalls() {
        let m = parse_module(BARRIER).unwrap();
        let mut gpu = sim(1);
        gpu.config_mut().sampling_period = 31;
        let r = gpu.launch(&m, "barrier", &LaunchConfig::new(1, 64), &[]).unwrap();
        let syncs = r.samples.reason_total(StallReason::Synchronization);
        assert!(syncs > 0, "warp 1 waits at BAR.SYNC while warp 0 loops");
        assert!(r.cycles > 1000, "200-iteration loop dominates");
    }

    /// Divergent kernel: odd lanes take one path, even lanes the other;
    /// both sides write a distinct constant to out[tid].
    const DIVERGE: &str = r#"
.module diverge
.kernel diverge
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  LOP3.AND R4, R0, 1 {S:4}
  ISETP.EQ.AND P0, R4, 1 {S:2}
  @P0 BRA odd {S:5}
  MOV32I R5, 1000 {S:1}
  BRA join {S:5}
odd:
  MOV32I R5, 2000 {S:1}
join:
  STG.E.32 [R2:R3], R5 {R:B1, S:1}
  EXIT {WT:[B1], S:1}
.endfunc
"#;

    #[test]
    fn divergence_reconverges_with_correct_values() {
        let m = parse_module(DIVERGE).unwrap();
        let mut gpu = sim(1);
        let out = gpu.global_mut().alloc(4 * 32);
        gpu.launch(&m, "diverge", &LaunchConfig::new(1, 32), &params_u64(&[out])).unwrap();
        for i in 0..32u64 {
            let expect = if i % 2 == 1 { 2000 } else { 1000 };
            assert_eq!(gpu.global().read_u32(out + 4 * i), expect, "lane {i}");
        }
    }

    #[test]
    fn sampling_emits_active_and_latency_samples() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        gpu.config_mut().sampling_period = 7;
        let a = gpu.global_mut().alloc(256);
        let b = gpu.global_mut().alloc(256);
        let out = gpu.global_mut().alloc(256);
        let r =
            gpu.launch(&m, "vecadd", &LaunchConfig::new(4, 64), &params_u64(&[a, b, out])).unwrap();
        assert!(!r.samples.is_empty());
        assert!(r.samples.latency_samples() > 0, "dependent loads leave empty issue slots");
        assert!(r.samples.stall_samples() > 0);
        let memdep = r.samples.reason_total(StallReason::MemoryDependency);
        assert!(memdep > 0, "IADD waits on LDG barriers");
    }

    #[test]
    fn more_parallelism_hides_latency() {
        // The same total work split across more warps should need fewer
        // cycles per element thanks to latency hiding.
        let m = parse_module(VEC_ADD).unwrap();
        let run = |blocks: u32, threads: u32| {
            let mut gpu = sim(1);
            let n = (blocks * threads) as u64;
            let a = gpu.global_mut().alloc(4 * n);
            let b = gpu.global_mut().alloc(4 * n);
            let out = gpu.global_mut().alloc(4 * n);
            gpu.launch(&m, "vecadd", &LaunchConfig::new(blocks, threads), &params_u64(&[a, b, out]))
                .unwrap()
                .cycles
        };
        // Per-element cost must drop when more warps are resident.
        let narrow = run(2, 32); // 2 warps, 64 elements
        let wide = run(2, 128); // 8 warps, 256 elements
        let narrow_per = narrow as f64 / 64.0;
        let wide_per = wide as f64 / 256.0;
        assert!(
            wide_per < narrow_per,
            "more warps hide latency: {wide_per:.2} !< {narrow_per:.2} cycles/element"
        );
    }

    #[test]
    fn grid_larger_than_resident_blocks_completes() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        let n = 64 * 32u64;
        let a = gpu.global_mut().alloc(4 * n);
        let b = gpu.global_mut().alloc(4 * n);
        let out = gpu.global_mut().alloc(4 * n);
        for i in 0..n {
            gpu.global_mut().write_u32(a + 4 * i, 1);
            gpu.global_mut().write_u32(b + 4 * i, 2);
        }
        let r = gpu
            .launch(&m, "vecadd", &LaunchConfig::new(64, 32), &params_u64(&[a, b, out]))
            .unwrap();
        assert_eq!(r.issued, 64 * 19);
        // Every element computed, including the last wave of blocks.
        assert_eq!(gpu.global().read_u32(out + 4 * (n - 1)), 3);
        let total_blocks: u32 = r.sm_stats.iter().map(|s| s.blocks).sum();
        assert_eq!(total_blocks, 64);
    }

    /// Block-local thread index must come from TID, not warp id: exercises
    /// a device-function call too.
    const CALL: &str = r#"
.module call
.kernel main
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  MOV R4, R0 {S:2}
  CAL triple {S:5}
  STG.E.32 [R2:R3], R5 {R:B1, S:1}
  EXIT {WT:[B1], S:1}
.endfunc
.func triple
  IADD R5, R4, R4 {S:4}
  IADD R5, R5, R4 {S:4}
  RET {S:5}
.endfunc
"#;

    #[test]
    fn device_function_call_and_return() {
        let m = parse_module(CALL).unwrap();
        let mut gpu = sim(1);
        let out = gpu.global_mut().alloc(4 * 32);
        gpu.launch(&m, "main", &LaunchConfig::new(1, 32), &params_u64(&[out])).unwrap();
        for i in 0..32u64 {
            assert_eq!(gpu.global().read_u32(out + 4 * i), 3 * i as u32);
        }
    }

    /// Runs a kernel under both scheduler cores and asserts byte-identical
    /// results — the aggregated `LaunchResult` *and* the raw per-sample
    /// stream (cycle/SM/scheduler identity, which aggregation could
    /// mask).
    fn assert_dense_event_identical(
        text: &str,
        entry: &str,
        launch: LaunchConfig,
        period: u32,
        phase: u32,
        nbufs: u64,
        words_per_buf: u64,
    ) {
        assert_dense_event_identical_on(
            ArchConfig::small(2),
            text,
            entry,
            launch,
            period,
            phase,
            nbufs,
            words_per_buf,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn assert_dense_event_identical_on(
        arch: ArchConfig,
        text: &str,
        entry: &str,
        launch: LaunchConfig,
        period: u32,
        phase: u32,
        nbufs: u64,
        words_per_buf: u64,
    ) {
        let m = parse_module(text).unwrap();
        // One arming recipe for every run in this helper: `raw = None`
        // launches through the default aggregating sink, `Some` buffers
        // the raw stream.
        let run = |dense: bool, collect_raw: bool| {
            let cfg = SimConfig {
                sampling_period: period,
                sampling_phase: phase,
                dense_reference: dense,
                ..SimConfig::default()
            };
            let mut gpu = GpuSim::new(arch.clone(), cfg);
            let bufs: Vec<u64> =
                (0..nbufs).map(|_| gpu.global_mut().alloc(4 * words_per_buf)).collect();
            for (bi, b) in bufs.iter().enumerate() {
                for i in 0..words_per_buf {
                    gpu.global_mut().write_u32(b + 4 * i, (bi as u32 + 1) * 10 + i as u32);
                }
            }
            let params = params_u64(&bufs);
            let mut raw: Vec<RawSample> = Vec::new();
            let result = if collect_raw {
                gpu.launch_with_sink(&m, entry, &launch, &params, &mut raw)
            } else {
                gpu.launch(&m, entry, &launch, &params)
            };
            (result.unwrap(), raw)
        };
        let (dense, dense_raw) = run(true, true);
        let (event, event_raw) = run(false, true);
        assert_eq!(dense, event, "dense and event-driven cores must agree for `{entry}`");
        assert_eq!(dense_raw, event_raw, "raw sample streams must agree for `{entry}`");
        // The default aggregating sink sees exactly this stream.
        let (aggregated, _) = run(false, false);
        assert_eq!(
            SampleSet::from_raw(&event_raw),
            aggregated.samples,
            "aggregate of the raw stream equals the default sink for `{entry}`"
        );
    }

    #[test]
    fn event_core_matches_dense_reference() {
        assert_dense_event_identical(VEC_ADD, "vecadd", LaunchConfig::new(4, 64), 13, 0, 3, 256);
        assert_dense_event_identical(BARRIER, "barrier", LaunchConfig::new(2, 64), 31, 0, 0, 0);
        assert_dense_event_identical(DIVERGE, "diverge", LaunchConfig::new(2, 32), 7, 0, 1, 64);
        assert_dense_event_identical(CALL, "main", LaunchConfig::new(2, 32), 17, 0, 1, 64);
    }

    #[test]
    fn event_core_matches_dense_without_sampling() {
        assert_dense_event_identical(VEC_ADD, "vecadd", LaunchConfig::new(4, 64), 0, 0, 3, 256);
    }

    /// Stride-128 global loads (one sector per lane — maximally
    /// uncoalesced) plus stride-128 shared traffic (every lane in bank 0
    /// — a 32-way conflict). Params: in, out (u64 each); buffers hold
    /// 1024 words.
    const MEMBOUND: &str = r#"
.module membound
.kernel membound
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 7 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  LDG.E.32 R8, [R2:R3] {W:B1, S:1}
  SHL R9, R0, 7 {S:2}
  STS.32 [R9], R8 {WT:[B1], R:B2, S:2}
  LDS.32 R10, [R9] {WT:[B2], W:B3, S:1}
  MOV R4, c[0][8] {S:1}
  MOV R5, c[0][12] {S:1}
  IADD R4:R5, R4:R5, R1 {S:2}
  STG.E.32 [R4:R5], R10 {WT:[B3], R:B4, S:1}
  EXIT {WT:[B4], S:1}
.endfunc
"#;

    fn membound_launch(blocks: u32) -> LaunchConfig {
        let mut lc = LaunchConfig::new(blocks, 32);
        lc.smem_per_block = 32 * 128;
        lc
    }

    #[test]
    fn event_core_matches_dense_with_hierarchy() {
        let arch = || ArchConfig::small(2).with_hierarchy();
        assert_dense_event_identical_on(
            arch(),
            VEC_ADD,
            "vecadd",
            LaunchConfig::new(4, 64),
            13,
            0,
            3,
            256,
        );
        assert_dense_event_identical_on(
            arch(),
            BARRIER,
            "barrier",
            LaunchConfig::new(2, 64),
            31,
            0,
            0,
            0,
        );
        assert_dense_event_identical_on(
            arch(),
            MEMBOUND,
            "membound",
            membound_launch(4),
            7,
            0,
            2,
            1024,
        );
    }

    /// A hierarchy run with a tight MSHR file must classify the new stall
    /// reasons, and the flat model must never emit them.
    #[test]
    fn hierarchy_produces_new_stall_reasons_and_flat_does_not() {
        use gpa_arch::HierarchyConfig;
        let m = parse_module(MEMBOUND).unwrap();
        let run = |arch: ArchConfig| {
            let cfg = SimConfig { sampling_period: 3, ..SimConfig::default() };
            let mut gpu = GpuSim::new(arch, cfg);
            let input = gpu.global_mut().alloc(4 * 1024);
            let out = gpu.global_mut().alloc(4 * 1024);
            for i in 0..1024u64 {
                gpu.global_mut().write_u32(input + 4 * i, i as u32);
            }
            let mut raw: Vec<RawSample> = Vec::new();
            let r = gpu
                .launch_with_sink(
                    &m,
                    "membound",
                    &membound_launch(8),
                    &params_u64(&[input, out]),
                    &mut raw,
                )
                .unwrap();
            // Functional result is model-independent.
            for lane in 0..32u64 {
                assert_eq!(gpu.global().read_u32(out + 128 * lane), 32 * lane as u32);
            }
            (r, raw)
        };

        let mut tight = ArchConfig::small(1);
        tight.mem = MemModel::Hierarchy(HierarchyConfig {
            mshr_capacity: 4,
            l2_queue_capacity: 4,
            ..HierarchyConfig::default()
        });
        let (_, hier_raw) = run(tight);
        let seen = |raw: &[RawSample], r: StallReason| raw.iter().any(|s| s.stall == r);
        assert!(seen(&hier_raw, StallReason::Uncoalesced), "stride-128 loads blame Uncoalesced");
        assert!(
            seen(&hier_raw, StallReason::BankConflict),
            "bank-0 smem traffic blames BankConflict"
        );
        assert!(
            seen(&hier_raw, StallReason::MshrFull) || seen(&hier_raw, StallReason::L2Queue),
            "a 4-entry MSHR/L2 queue backpressures 32-sector bursts"
        );

        let (_, flat_raw) = run(ArchConfig::small(1));
        for s in &flat_raw {
            assert!(
                s.stall.code() <= StallReason::Other.code(),
                "flat model must never emit hierarchy reasons, got {}",
                s.stall
            );
        }
    }

    /// Widening a bounded queue only removes stall conditions: on the
    /// memory-bound kernel, cycle counts are non-increasing in MSHR and
    /// L2-queue capacity.
    #[test]
    fn hierarchy_capacity_is_monotone() {
        use gpa_arch::HierarchyConfig;
        let m = parse_module(MEMBOUND).unwrap();
        let cycles = |cap: u32| {
            let mut arch = ArchConfig::small(1);
            arch.mem = MemModel::Hierarchy(HierarchyConfig {
                mshr_capacity: cap,
                l2_queue_capacity: cap,
                ..HierarchyConfig::default()
            });
            let mut gpu = GpuSim::new(arch, SimConfig::default());
            let input = gpu.global_mut().alloc(4 * 1024);
            let out = gpu.global_mut().alloc(4 * 1024);
            let r = gpu
                .launch(&m, "membound", &membound_launch(8), &params_u64(&[input, out]))
                .unwrap();
            r.cycles
        };
        let caps = [2u32, 4, 8, 16, 32, 64];
        let runs: Vec<u64> = caps.iter().map(|&c| cycles(c)).collect();
        for w in runs.windows(2) {
            assert!(w[1] <= w[0], "more capacity must never slow a kernel: {runs:?}");
        }
        assert!(runs[runs.len() - 1] < runs[0], "the tightest queue must actually bite: {runs:?}");
    }

    #[test]
    fn event_core_matches_dense_with_sampling_phase() {
        // Replay-style repeat profiling offsets the first tick; the
        // cores must agree for every phase, including phases beyond the
        // first tick period.
        for phase in [1, 5, 12, 40] {
            assert_dense_event_identical(
                VEC_ADD,
                "vecadd",
                LaunchConfig::new(4, 64),
                13,
                phase,
                3,
                256,
            );
        }
    }

    #[test]
    fn sampling_phase_shifts_which_cycles_are_observed() {
        let m = parse_module(VEC_ADD).unwrap();
        let run = |phase: u32| {
            let cfg =
                SimConfig { sampling_period: 13, sampling_phase: phase, ..SimConfig::default() };
            let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
            let a = gpu.global_mut().alloc(4 * 256);
            let b = gpu.global_mut().alloc(4 * 256);
            let out = gpu.global_mut().alloc(4 * 256);
            let mut raw: Vec<RawSample> = Vec::new();
            let r = gpu
                .launch_with_sink(
                    &m,
                    "vecadd",
                    &LaunchConfig::new(4, 64),
                    &params_u64(&[a, b, out]),
                    &mut raw,
                )
                .unwrap();
            (r.cycles, raw)
        };
        let (cycles0, base) = run(0);
        let (cycles7, shifted) = run(7);
        assert_eq!(cycles0, cycles7, "sampling never perturbs timing");
        assert!(!base.is_empty() && !shifted.is_empty());
        assert!(base.iter().all(|s| s.cycle % 13 == 0));
        assert!(shifted.iter().all(|s| s.cycle % 13 == 7));
    }

    #[test]
    fn external_sink_sees_the_stream_the_default_sink_aggregates() {
        let m = parse_module(VEC_ADD).unwrap();
        let launch = LaunchConfig::new(4, 64);
        let alloc = |gpu: &mut GpuSim| {
            let a = gpu.global_mut().alloc(4 * 256);
            let b = gpu.global_mut().alloc(4 * 256);
            let out = gpu.global_mut().alloc(4 * 256);
            params_u64(&[a, b, out])
        };
        let cfg = SimConfig { sampling_period: 7, ..SimConfig::default() };
        let mut gpu = GpuSim::new(ArchConfig::small(1), cfg.clone());
        let params = alloc(&mut gpu);
        let aggregated = gpu.launch(&m, "vecadd", &launch, &params).unwrap();

        let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
        let params = alloc(&mut gpu);
        let mut raw: Vec<RawSample> = Vec::new();
        let buffered = gpu.launch_with_sink(&m, "vecadd", &launch, &params, &mut raw).unwrap();
        assert!(buffered.samples.is_empty(), "external sink owns the samples");
        assert_eq!(
            SampleSet::from_raw(&raw),
            aggregated.samples,
            "at-source aggregation equals buffered aggregation"
        );
        assert_eq!(buffered.cycles, aggregated.cycles);
        assert_eq!(buffered.issued, aggregated.issued);
    }

    #[test]
    fn cycle_budget_errors_identically_when_jumping_past_it() {
        // A memory-latency-bound kernel with a tiny budget and sampling
        // off: the event core's first jump would leap far past the budget
        // and must clamp to it, erroring exactly like the dense loop.
        let m = parse_module(VEC_ADD).unwrap();
        let run = |dense: bool| {
            let cfg = SimConfig {
                sampling_period: 0,
                max_cycles: 50,
                dense_reference: dense,
                ..SimConfig::default()
            };
            let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
            let a = gpu.global_mut().alloc(256);
            let b = gpu.global_mut().alloc(256);
            let out = gpu.global_mut().alloc(256);
            gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&[a, b, out]))
        };
        assert_eq!(run(true).unwrap_err(), SimError::CycleLimit(50));
        assert_eq!(run(false).unwrap_err(), SimError::CycleLimit(50));
    }

    #[test]
    fn compiled_program_reuse_matches_fresh_launches() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        let prog = gpu.compile(&m, "vecadd").unwrap();
        assert_eq!(prog.entry(), "vecadd");
        assert_eq!(prog.module_name(), "vecadd");
        let a = gpu.global_mut().alloc(4 * 64);
        let b = gpu.global_mut().alloc(4 * 64);
        let out = gpu.global_mut().alloc(4 * 64);
        let params = params_u64(&[a, b, out]);
        let lc = LaunchConfig::new(2, 32);
        let fresh = gpu.launch(&m, "vecadd", &lc, &params).unwrap();
        let reused = gpu.launch_compiled(&prog, &lc, &params).unwrap();
        let again = gpu.launch_compiled(&prog, &lc, &params).unwrap();
        assert_eq!(fresh, reused);
        assert_eq!(fresh, again);
    }

    #[test]
    fn compiled_program_rejects_mismatched_arch() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut small_arch = ArchConfig::small(1);
        small_arch.name = "other-arch".into();
        let other = GpuSim::new(small_arch, SimConfig::default());
        let prog = other.compile(&m, "vecadd").unwrap();
        let mut gpu = sim(1);
        assert!(matches!(
            gpu.launch_compiled(&prog, &LaunchConfig::new(1, 32), &[]),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn issue_counts_are_sorted_by_pc() {
        let m = parse_module(VEC_ADD).unwrap();
        let mut gpu = sim(1);
        let a = gpu.global_mut().alloc(4 * 32);
        let b = gpu.global_mut().alloc(4 * 32);
        let out = gpu.global_mut().alloc(4 * 32);
        let r =
            gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&[a, b, out])).unwrap();
        let pcs: Vec<u64> = r.issue_counts.keys().copied().collect();
        let mut sorted = pcs.clone();
        sorted.sort_unstable();
        assert_eq!(pcs, sorted, "BTreeMap iteration is PC-ordered");
        assert_eq!(r.issue_counts.values().sum::<u64>(), r.issued);
    }
}
