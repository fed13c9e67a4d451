//! One image on one execution tier, through the public entry points
//! (`Iss`, and `Core` over a `TestBus`), under the memory map of the
//! fuzzer's tier checker.

use audo_common::{Addr, Cycle, EventRecord, EventSink, SimError, SourceId};
use audo_fuzz::tiers::{CSA_BASE, CSA_FRAMES, REGIONS};
use audo_tricore::arch::init_csa_list;
use audo_tricore::bus::TestBus;
use audo_tricore::iss::Iss;
use audo_tricore::{ArchState, Core, CoreConfig, Image, PipelineStats};

/// What an ISS run left behind.
#[derive(Debug, Clone)]
pub struct IssOut {
    /// Fault, if the run did not halt cleanly.
    pub err: Option<SimError>,
    /// Final architectural state.
    pub state: ArchState,
    /// Instructions retired.
    pub retired: u64,
    /// Block-cache `(hits, lookups)` (fast path only).
    pub blocks: (u64, u64),
}

/// Runs `image` on the functional ISS. `observe` turns on the event and
/// opcode streams, as the tier checker does.
#[must_use]
pub fn run_iss(image: &Image, fast: bool, observe: bool, max_instrs: u64) -> IssOut {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    let err = iss
        .init_csa(Addr(CSA_BASE), CSA_FRAMES)
        .and_then(|()| iss.load(image))
        .and_then(|()| {
            iss.set_fast_path(fast);
            iss.set_observation(observe);
            iss.set_opcode_observation(observe);
            iss.run_resumable(max_instrs).map(|_| ())
        })
        .err();
    let blocks = iss
        .cache_stats()
        .map_or((0, 0), |c| (c.hits, c.hits + c.misses));
    IssOut {
        err,
        state: iss.state().clone(),
        retired: iss.instr_count(),
        blocks,
    }
}

/// What a pipeline run left behind.
#[derive(Debug, Clone)]
pub struct PipeOut {
    /// Fault, if a step failed.
    pub err: Option<SimError>,
    /// The core executed `HALT` within the cycle cap.
    pub halted: bool,
    /// Cycles stepped.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Data registers.
    pub d: [u32; 16],
    /// Address registers.
    pub a: [u32; 16],
    /// Stall decomposition and predecode-cache counters.
    pub stats: PipelineStats,
}

/// Runs `image` on the cycle-level pipeline over a `TestBus` for at most
/// `max_cycles`. `observe` collects the event stream, as the tier checker
/// does; otherwise the sink is off (the production configuration).
#[must_use]
pub fn run_pipe(image: &Image, fast: bool, observe: bool, max_cycles: u64) -> PipeOut {
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    let mut err = image.load_into(&mut bus.mem).err();
    if err.is_none() {
        match init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES) {
            Ok(fcx) => core.arch_mut().fcx = fcx,
            Err(e) => err = Some(e),
        }
    }
    let mut sink = EventSink::new();
    sink.set_enabled(observe);
    let mut events: Vec<EventRecord> = Vec::new();
    let mut cyc = 0u64;
    while err.is_none() && !core.is_halted() && cyc < max_cycles {
        if let Err(e) = core.step(Cycle(cyc), &mut bus, None, &mut sink) {
            err = Some(e);
            break;
        }
        if observe {
            events.append(&mut sink.drain());
        }
        cyc += 1;
    }
    std::hint::black_box(&events);
    PipeOut {
        err,
        halted: core.is_halted(),
        cycles: cyc,
        retired: core.retired_total(),
        d: core.arch().d,
        a: core.arch().a,
        stats: *core.stats(),
    }
}
