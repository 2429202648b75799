//! Inputs generated from `--seed`. The program under test receives only
//! what these functions return.

use gex::Scheme;
use gex_prng::Prng;

/// The sixteen suite workloads a campaign may name (`suite::by_name`).
pub const SUITE: [&str; 16] = [
    "bfs",
    "cutcp",
    "histo",
    "lbm",
    "mri-gridding",
    "mri-q",
    "sad",
    "sgemm",
    "spmv",
    "stencil",
    "tpacf",
    "halloc-fixed",
    "halloc-prob",
    "halloc-chain",
    "halloc-stream",
    "quad-tree",
];

/// The Figure 10+11 scheme axis: four pipeline schemes and the four
/// studied operand-log sizes.
pub fn schemes() -> Vec<Scheme> {
    let mut v = vec![
        Scheme::Baseline,
        Scheme::WdCommit,
        Scheme::WdLastCheck,
        Scheme::ReplayQueue,
    ];
    v.extend(
        gex::power::studied_sizes()
            .iter()
            .map(|&bytes| Scheme::OperandLog { bytes }),
    );
    v
}

/// Share of Figure 14 points simulated under `InjectionPlan::light`.
const INJECTED_SHARE: f64 = 0.5;

/// Per Figure 14 point: the light-injection seed it runs under, or `None`
/// for a clean run.
pub fn injection_seeds(seed: u64, points: usize) -> Vec<Option<u64>> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x1A6E_0014);
    (0..points)
        .map(|_| {
            let injected = rng.gen_bool(INJECTED_SHARE);
            let s = rng.next_u64();
            injected.then_some(s)
        })
        .collect()
}

/// One campaign of the serve mix: one workload under two schemes with a
/// light-injection seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignInput {
    /// Suite workload name.
    pub workload: &'static str,
    /// Two distinct schemes.
    pub schemes: [Scheme; 2],
    /// `InjectionPlan::light` seed carried in the spec.
    pub inject_seed: u64,
    /// The earlier campaign whose points this one repeats, if any.
    pub repeat_of: Option<usize>,
}

/// The first `n` campaigns of the serve mix for `seed`. Campaigns come in
/// pairs of one fresh campaign and one that repeats an earlier fresh
/// campaign's points, so result-cache hits sit beside misses. Fresh
/// campaigns deal their workloads from a shuffled deck of the sixteen
/// suite workloads. The first deck, which lies in the first
/// [`deck_prefix`] campaigns, runs each workload once under a fixed scheme
/// pair whatever the seed; later decks draw their scheme pairs from the
/// seed.
pub fn campaign_sequence(seed: u64, n: usize) -> Vec<CampaignInput> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5E87_E000);
    let all = schemes();
    let mut out: Vec<CampaignInput> = Vec::with_capacity(n);
    let mut fresh: Vec<usize> = Vec::new();
    let mut deck: Vec<&'static str> = Vec::new();
    while out.len() < n {
        // The very first campaign has nothing to repeat.
        let fresh_first = out.is_empty() || rng.gen_bool(0.5);
        for fresh_slot in [fresh_first, !fresh_first] {
            if out.len() == n {
                break;
            }
            if !fresh_slot {
                let root = fresh[rng.gen_range(0..fresh.len())];
                out.push(CampaignInput {
                    repeat_of: Some(root),
                    ..out[root].clone()
                });
                continue;
            }
            if deck.is_empty() {
                deck = SUITE.to_vec();
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.gen_range(0..=i));
                }
            }
            let workload = deck.pop().expect("the deck was just refilled");
            let (a, b) = if fresh.len() < SUITE.len() {
                // The first deck pairs each workload with fixed schemes,
                // so the cycles it simulates do not depend on the seed.
                let w = SUITE
                    .iter()
                    .position(|&n| n == workload)
                    .expect("dealt from SUITE");
                (w % all.len(), (w + 1 + w / all.len()) % all.len())
            } else {
                let a = rng.gen_range(0..all.len());
                (a, (a + rng.gen_range(1..all.len())) % all.len())
            };
            fresh.push(out.len());
            out.push(CampaignInput {
                workload,
                schemes: [all[a], all[b]],
                inject_seed: rng.next_u64(),
                repeat_of: None,
            });
        }
    }
    out
}

/// Campaigns that hold the first deck of fresh campaigns: one fresh
/// campaign per pair.
pub fn deck_prefix() -> usize {
    2 * SUITE.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(campaign_sequence(7, 200), campaign_sequence(7, 200));
        assert_eq!(injection_seeds(7, 22), injection_seeds(7, 22));
    }

    #[test]
    fn different_seeds_different_inputs() {
        assert_ne!(campaign_sequence(1, 50), campaign_sequence(2, 50));
        assert_ne!(injection_seeds(1, 22), injection_seeds(2, 22));
    }

    #[test]
    fn longer_sequences_extend_shorter_ones() {
        let long = campaign_sequence(3, 100);
        assert_eq!(campaign_sequence(3, 40)[..], long[..40]);
    }

    #[test]
    fn campaigns_are_well_formed_and_mixed() {
        let seq = campaign_sequence(11, 400);
        let repeats = seq.iter().filter(|c| c.repeat_of.is_some()).count();
        assert_eq!(repeats, 200, "one repeat per pair");
        for (i, c) in seq.iter().enumerate() {
            assert_ne!(c.schemes[0], c.schemes[1]);
            if let Some(j) = c.repeat_of {
                assert!(j < i && seq[j].repeat_of.is_none());
                assert_eq!(
                    (c.workload, c.schemes, c.inject_seed),
                    (seq[j].workload, seq[j].schemes, seq[j].inject_seed)
                );
            }
        }
        let injected = injection_seeds(11, 1000)
            .iter()
            .filter(|s| s.is_some())
            .count();
        assert!(
            (400..600).contains(&injected),
            "about half injected: {injected}"
        );
    }

    #[test]
    fn the_first_deck_names_every_workload_once() {
        for seed in 0..20 {
            let seq = campaign_sequence(seed, deck_prefix());
            let mut names: Vec<&str> = seq
                .iter()
                .filter(|c| c.repeat_of.is_none())
                .map(|c| c.workload)
                .collect();
            names.sort_unstable();
            let mut want = SUITE.to_vec();
            want.sort_unstable();
            assert_eq!(names, want, "seed {seed}");
        }
        let pairs = |seed| {
            let mut v: Vec<(&str, [Scheme; 2])> = campaign_sequence(seed, deck_prefix())
                .into_iter()
                .filter(|c| c.repeat_of.is_none())
                .map(|c| (c.workload, c.schemes))
                .collect();
            v.sort_by_key(|p| p.0);
            v
        };
        assert_eq!(
            pairs(1),
            pairs(2),
            "the first deck's points do not depend on the seed"
        );
    }
}
