//! Differential test of the pattern-driven replay path.
//!
//! [`Pattern::play`] charges repeated passes without replaying them once
//! the hierarchy reaches a fixed point. Seeded random pattern trees are
//! driven through it and, on an identical memory system, through
//! [`Pattern::requests`] one request at a time; the tallies, every cache
//! and DRAM counter, and the full cache contents must come out equal, on
//! every stock board, for both agents, in every memory space.

use icomm_soc::cache::AccessKind;
use icomm_soc::hierarchy::{Agent, MemSpace, MemorySystem};
use icomm_soc::request::MemRequest;
use icomm_soc::traffic::replay_counts;
use icomm_soc::units::Picos;
use icomm_soc::DeviceProfile;
use icomm_trace::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests one generated tree may issue; bigger trees are redrawn.
const MAX_REQUESTS: u64 = 150_000;

const BASE: u64 = 0x5000_0000;

fn kind(rng: &mut StdRng) -> AccessKind {
    if rng.gen_range(0..2) == 0 {
        AccessKind::Read
    } else {
        AccessKind::Write
    }
}

/// A footprint below, between or above the agent's L1 and LLC sizes.
fn footprint(rng: &mut StdRng, l1: u64, llc: u64) -> u64 {
    let sizes = [256, l1 / 2, 2 * l1, llc / 2, llc + llc / 4];
    sizes[rng.gen_range(0..sizes.len())].max(64)
}

fn leaf(rng: &mut StdRng, l1: u64, llc: u64) -> Pattern {
    // Odd starts and 96/128-byte transactions straddle 64-byte lines.
    let txn_bytes = [4u32, 8, 32, 64, 96, 128][rng.gen_range(0..6usize)];
    let start = rng.gen_range(0..4096u64) * 8;
    let bytes = footprint(rng, l1, llc);
    match rng.gen_range(0..5) {
        0 => Pattern::Linear {
            start,
            bytes,
            txn_bytes,
            kind: kind(rng),
        },
        1 => Pattern::LinearRmw {
            start,
            bytes,
            txn_bytes,
        },
        2 => {
            let stride = [64u64, 256, 4096, 24_576][rng.gen_range(0..4usize)];
            Pattern::Strided {
                start,
                count: (bytes / stride).max(1),
                stride,
                txn_bytes,
                kind: kind(rng),
            }
        }
        3 => Pattern::SingleAddress {
            addr: start,
            count: rng.gen_range(1..5_000),
            txn_bytes,
            kind: kind(rng),
        },
        _ => Pattern::SparseUniform {
            start,
            region_bytes: bytes,
            count: rng.gen_range(1..4_000),
            txn_bytes,
            seed: rng.gen_range(0..1 << 20),
            kind: kind(rng),
        },
    }
}

fn tree(rng: &mut StdRng, depth: u32, l1: u64, llc: u64) -> Pattern {
    match if depth == 0 { 0 } else { rng.gen_range(0..3) } {
        0 => leaf(rng, l1, llc),
        1 => Pattern::Sequence(
            (0..rng.gen_range(1..4))
                .map(|_| tree(rng, depth - 1, l1, llc))
                .collect(),
        ),
        _ => Pattern::Repeat {
            body: Box::new(tree(rng, depth - 1, l1, llc)),
            times: rng.gen_range(1..9),
        },
    }
}

fn bounded_tree(rng: &mut StdRng, l1: u64, llc: u64) -> Pattern {
    loop {
        let pattern = tree(rng, 3, l1, llc);
        if pattern.len() <= MAX_REQUESTS {
            return pattern;
        }
    }
}

/// The cache and DRAM counters plus the full cache contents.
fn state(mem: &MemorySystem) -> impl PartialEq + std::fmt::Debug {
    let caches = [
        (Agent::Cpu, 1),
        (Agent::Cpu, 2),
        (Agent::Gpu, 1),
        (Agent::Gpu, 2),
    ];
    (
        caches.map(|(agent, level)| *mem.cache(agent, level).stats()),
        *mem.dram().stats(),
        caches.map(|(agent, level)| mem.cache(agent, level).contents()),
    )
}

/// Plays `pattern` through both paths on two copies of `mem` and checks
/// that they agree; returns (requests accounted, requests simulated) of
/// the replay path.
fn check(mem: &MemorySystem, agent: Agent, space: MemSpace, pattern: &Pattern) -> (u64, u64) {
    let mut fast = mem.clone();
    let mut reference = mem.clone();
    let before = replay_counts();
    let fast_tally = fast.play(agent, |port| pattern.play(BASE, space, port));
    let after = replay_counts();
    let reference_tally = reference.play(agent, |port| {
        for req in pattern.requests(space) {
            port.issue(MemRequest {
                addr: BASE + req.addr,
                ..req
            });
        }
    });
    assert_eq!(
        fast_tally, reference_tally,
        "{agent:?} {space:?} {pattern:?}"
    );
    assert!(
        state(&fast) == state(&reference),
        "{agent:?} {space:?} {pattern:?}"
    );
    (
        after.accounted - before.accounted,
        after.simulated - before.simulated,
    )
}

#[test]
fn replayed_patterns_match_the_per_request_path_everywhere() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2021);
    let (mut accounted, mut simulated) = (0, 0);
    for board in DeviceProfile::extended_boards() {
        let mut mem = board.build_memory_system();
        mem.set_upm_fill_extra(Picos::from_nanos(40), Picos::from_nanos(300));
        for agent in [Agent::Cpu, Agent::Gpu] {
            let (l1, llc) = (
                mem.cache(agent, 1).geometry().size.as_u64(),
                mem.cache(agent, 2).geometry().size.as_u64(),
            );
            for space in [MemSpace::Cached, MemSpace::Pinned, MemSpace::Upm] {
                for _ in 0..6 {
                    let pattern = bounded_tree(&mut rng, l1, llc);
                    let (a, s) = check(&mem, agent, space, &pattern);
                    accounted += a;
                    simulated += s;
                    // Carry warm, dirty state into the next case so trees
                    // also start from caches they did not fill.
                    mem.play(agent, |port| pattern.play(BASE, space, port));
                }
            }
        }
    }
    // The fast path must actually skip work on these trees.
    assert!(
        simulated < accounted,
        "{simulated} of {accounted} simulated"
    );
}
