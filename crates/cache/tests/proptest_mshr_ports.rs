//! Property tests for the MSHR file and port arbiters.

use cache_model::{BankedPorts, MshrFile, MshrOutcome};
use proptest::prelude::*;
use sim_core::{Cycle, LineAddr};

proptest! {
    /// The MSHR file never tracks more entries than its capacity, and
    /// coalesced requests always return the original completion time.
    #[test]
    fn mshr_capacity_and_coalescing(
        ops in prop::collection::vec((0u64..16, 0u64..50, 1u64..200), 1..200)
    ) {
        let mut mshrs = MshrFile::new(4);
        let mut now = Cycle::ZERO;
        let mut inflight: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for (line, advance, latency) in ops {
            now += advance;
            inflight.retain(|_, ready| *ready > now.raw());
            let outcome = mshrs.request(LineAddr::new(line), now, now + latency);
            prop_assert!(mshrs.outstanding(now) <= 4);
            match outcome {
                MshrOutcome::Allocated(ready) => {
                    prop_assert_eq!(ready, now + latency);
                    inflight.insert(line, ready.raw());
                }
                MshrOutcome::Coalesced(ready) => {
                    prop_assert_eq!(Some(&ready.raw()), inflight.get(&line));
                }
                MshrOutcome::Full { retry_at } => {
                    prop_assert!(retry_at > now, "retry must be in the future");
                    prop_assert_eq!(inflight.len(), 4);
                }
            }
        }
    }

    /// The file retires lazily (it walks its entries only once `now`
    /// reaches the earliest completion), yet every call answers as a
    /// model that retires on every call: `lookup`, `has_free`,
    /// `insert`, `request`, `outstanding` and `earliest_ready`,
    /// interleaved at non-decreasing times.
    #[test]
    fn mshr_matches_retain_always_model(
        ops in prop::collection::vec((0u8..5, 0u64..8, 0u64..30, 1u64..120), 1..300)
    ) {
        const CAPACITY: usize = 3;
        let mut mshrs = MshrFile::new(CAPACITY);
        // (line, ready) in allocation order.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = Cycle::ZERO;
        for (op, line, advance, latency) in ops {
            now += advance;
            let ready = now + latency;
            let retire = |model: &mut Vec<(u64, u64)>| model.retain(|&(_, r)| r > now.raw());
            let earliest = |model: &Vec<(u64, u64)>| model.iter().map(|&(_, r)| Cycle::new(r)).min();
            match op {
                0 => {
                    retire(&mut model);
                    let expected = model.iter().find(|&&(l, _)| l == line).map(|&(_, r)| Cycle::new(r));
                    prop_assert_eq!(mshrs.lookup(LineAddr::new(line), now), expected);
                }
                1 => {
                    retire(&mut model);
                    prop_assert_eq!(mshrs.has_free(now), model.len() < CAPACITY);
                }
                2 => {
                    // The check-fetch-insert sequence `Plumbing` runs.
                    retire(&mut model);
                    if mshrs.has_free(now) {
                        mshrs.insert(LineAddr::new(line), ready);
                        model.push((line, ready.raw()));
                    }
                }
                3 => {
                    retire(&mut model);
                    let expected = if let Some(&(_, r)) = model.iter().find(|&&(l, _)| l == line) {
                        MshrOutcome::Coalesced(Cycle::new(r))
                    } else if model.len() < CAPACITY {
                        model.push((line, ready.raw()));
                        MshrOutcome::Allocated(ready)
                    } else {
                        MshrOutcome::Full { retry_at: earliest(&model).expect("full file") }
                    };
                    prop_assert_eq!(mshrs.request(LineAddr::new(line), now, ready), expected);
                }
                _ => {
                    retire(&mut model);
                    prop_assert_eq!(mshrs.outstanding(now), model.len());
                }
            }
            // `earliest_ready` does not retire: it answers over every
            // entry not yet released, as the model's retained set.
            prop_assert_eq!(mshrs.earliest_ready(), earliest(&model));
        }
    }

    /// Port grants never precede the request and each resource is
    /// never double-booked: at most `resources` grants can coexist in
    /// any busy window.
    #[test]
    fn ports_never_overcommit(
        requests in prop::collection::vec(0u64..20, 1..200)
    ) {
        let mut ports = BankedPorts::new(3);
        let mut now = Cycle::ZERO;
        let mut grants = Vec::new();
        for advance in requests {
            now += advance;
            let grant = ports.acquire_any(now, 2);
            prop_assert!(grant >= now);
            grants.push(grant.raw());
        }
        grants.sort_unstable();
        for w in grants.windows(4) {
            prop_assert!(
                w[3] >= w[0] + 2,
                "4 grants within one 2-cycle occupancy: {w:?}"
            );
        }
    }
}
