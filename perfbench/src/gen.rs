//! Seeded workload generation. Everything the daemon sees — request
//! lines and `.soc` files — is a pure function of the workload and the
//! seed.

use std::sync::Arc;

use tamopt::service::RequestKind;
use tamopt::soc::format::write_soc;
use tamopt::soc::scenarios;
use tamopt::{benchmarks, Soc, SocError};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_7a3b_0bad_cafe)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one connection, every request a cold SOC.
    ColdScan,
    /// Open loop, two connections, Zipf-skewed warm keys.
    WarmMix,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "cold-scan" => Ok(Workload::ColdScan),
            "warm-mix" => Ok(Workload::WarmMix),
            other => Err(format!("unknown workload `{other}` (cold-scan, warm-mix)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold-scan",
            Workload::WarmMix => "warm-mix",
        }
    }

    /// The latency limit behind `goodput_share`, in milliseconds: above
    /// each workload's tail with room for the host's speed swings, so
    /// the share moves when latency regresses, not with the host.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::ColdScan => 400.0,
            Workload::WarmMix => 200.0,
        }
    }

    /// Open-loop arrival rate in requests per second (`None` for the
    /// closed loop). It sits well below the saturation point of one
    /// worker thread, so no backlog builds up, and keeps the blocking
    /// frontier sweeps mostly apart.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::ColdScan => None,
            Workload::WarmMix => Some(20.0),
        }
    }
}

/// One request the benchmark can send.
#[derive(Debug, Clone)]
pub struct Spec {
    pub soc: Arc<Soc>,
    /// How the request line names the SOC: the path of its `.soc` file.
    pub soc_ref: String,
    pub width: u32,
    pub max_tams: u32,
    pub kind: RequestKind,
}

impl Spec {
    /// The request line of the serve protocol (no newline).
    pub fn line(&self) -> String {
        match self.kind {
            RequestKind::Point => format!("{} {} {}", self.soc_ref, self.width, self.max_tams),
            kind => format!(
                "{} {} {} kind={}",
                self.soc_ref,
                self.width,
                self.max_tams,
                kind.label()
            ),
        }
    }

    /// The widths a frontier sweep covers (the request width otherwise).
    pub fn widths(&self) -> Vec<u32> {
        match self.kind {
            RequestKind::Frontier {
                min_width,
                max_width,
                step,
            } => (min_width..=max_width).step_by(step as usize).collect(),
            _ => vec![self.width],
        }
    }
}

/// What an open-loop slot sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Submit,
    /// Submit, then at once cancel the request just submitted.
    SubmitCancel,
    /// A `stats` probe.
    Stats,
}

/// One open-loop slot.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Seconds after the start of the timed phase.
    pub due: f64,
    pub conn: usize,
    pub action: Action,
    /// Index into [`Inputs::specs`] (unused for `Stats`).
    pub spec: usize,
}

/// Everything generated for one run.
#[derive(Debug, Default)]
pub struct Inputs {
    pub specs: Vec<Spec>,
    /// `.soc` files to write: path relative to the run directory, text.
    pub files: Vec<(String, String)>,
    /// Specs sent once, untimed, before the timed phase (warm-mix).
    pub warmup: Vec<usize>,
    /// Closed-loop rounds (cold-scan), each a fixed mix of shapes.
    pub rounds: Vec<Vec<usize>>,
    /// Open-loop schedule, due-time order.
    pub ops: Vec<Op>,
}

/// Built-in SOC shapes of every cold-scan round: `(soc, W, B, top-k)`.
/// Their final exact steps span from nothing to ~250 ms (p21241 and
/// p31108 at W=24), which sets the cold tail. Shapes whose exact step
/// runs for seconds (e.g. p93791 at W=32) are left out: one of them
/// would fill a large share of a run.
const COLD_BUILTINS: [(&str, u32, u32, bool); 10] = [
    ("d695", 48, 8, false),
    ("d695", 64, 8, true),
    ("p21241", 56, 8, true),
    ("p21241", 48, 8, false),
    ("p31108", 32, 8, false),
    ("p31108", 56, 8, true),
    ("p93791", 48, 8, false),
    ("p93791", 60, 8, true),
    ("p31108", 24, 8, false),
    ("p21241", 24, 8, false),
];

/// Seeded scenario SOCs of every cold-scan round: `(family, cores, W,
/// B, top-k)`, families indexing logic-heavy, memory-heavy and
/// bottleneck. The shapes are fixed so every run sends the same mix;
/// the seed draws each SOC's cores. At W 44–56 their scans take 20 to
/// 150 ms and fill the middle of the latency distribution, so the
/// median lands inside a dense stretch instead of between two shapes.
const COLD_SCENARIOS: [(usize, usize, u32, u32, bool); 10] = [
    (0, 12, 48, 8, false),
    (1, 20, 44, 9, true),
    (2, 16, 52, 10, false),
    (0, 24, 48, 8, true),
    (1, 10, 56, 9, false),
    (2, 18, 44, 10, true),
    (0, 14, 52, 8, false),
    (1, 22, 48, 9, true),
    (2, 8, 56, 10, false),
    (0, 16, 56, 8, true),
];

/// The warm key set in popularity (Zipf rank) order: `(soc, W, B)`.
/// Warm answers take about a millisecond, except on the p31108 key at
/// B = 3 (rank 2), whose exact steps take milliseconds even when warm.
/// Its frontier sweeps (about 2 % of the traffic) are the only requests
/// that hold the single worker for long, 150 ms or more, so they and the
/// requests queued behind them make the tail: a plateau at one known
/// cost, far above the host's stalls of a few tens of milliseconds.
const WARM_KEYS: [(&str, u32, u32); 20] = [
    ("d695", 24, 4),
    ("p31108", 24, 3),
    ("d695", 32, 8),
    ("p31108", 24, 2),
    ("p31108", 32, 2),
    ("d695", 16, 4),
    ("p31108", 28, 2),
    ("d695", 24, 6),
    ("d695", 28, 4),
    ("d695", 20, 8),
    ("d695", 32, 4),
    ("p31108", 16, 2),
    ("d695", 24, 8),
    ("d695", 20, 4),
    ("p31108", 20, 2),
    ("d695", 16, 8),
    ("d695", 28, 8),
    ("d695", 12, 4),
    ("p31108", 12, 2),
    ("d695", 12, 8),
];

/// Seconds between `stats` probes on each open-loop connection.
const STATS_EVERY: f64 = 2.0;

/// Share of open-loop submissions cancelled right after submission.
const CANCEL_SHARE: f64 = 0.05;

/// Open-loop connections.
pub const OPEN_CONNECTIONS: usize = 2;

fn builtin(name: &str) -> Option<Soc> {
    match name {
        "d695" => Some(benchmarks::d695()),
        "p21241" => Some(benchmarks::p21241()),
        "p31108" => Some(benchmarks::p31108()),
        "p93791" => Some(benchmarks::p93791()),
        _ => None,
    }
}

fn renamed(soc: &Soc, name: String) -> Result<Soc, SocError> {
    Soc::builder(name).cores(soc.cores().to_vec()).build()
}

/// Generates the inputs of `workload` for `seed`. `dir` is the run
/// directory as the daemon sees it (SOC paths in request lines start
/// with it); `seconds` sizes the schedule.
pub fn generate(workload: Workload, seed: u64, seconds: f64, dir: &str) -> Inputs {
    let mut rng = Rng::new(seed ^ ((workload as u64) << 56));
    match workload {
        Workload::ColdScan => cold_scan(&mut rng, seed, seconds, dir),
        Workload::WarmMix => warm(&mut rng, seconds, workload.rate().expect("open loop"), dir),
    }
}

fn cold_scan(rng: &mut Rng, seed: u64, seconds: f64, dir: &str) -> Inputs {
    type Family = fn(usize, u64) -> Result<Soc, SocError>;
    let families: [(&str, Family); 3] = [
        ("logic-heavy", scenarios::logic_heavy),
        ("memory-heavy", scenarios::memory_heavy),
        ("bottleneck", scenarios::bottleneck),
    ];
    let builtins: Vec<Soc> = ["d695", "p21241", "p31108", "p93791"]
        .iter()
        .map(|name| builtin(name).expect("built-in SOC"))
        .collect();
    let mut inputs = Inputs::default();
    // A round takes one to two seconds on one core; generate a round per
    // half second of the run, plus slack.
    let rounds = 2 * seconds.ceil() as usize + 4;
    for round in 0..rounds {
        let mut members = Vec::new();
        let mut push = |inputs: &mut Inputs, soc: Soc, width, max_tams, top_k: bool| {
            let file = format!("socs/r{round}-{}.soc", members.len());
            inputs.files.push((file.clone(), write_soc(&soc)));
            members.push(inputs.specs.len());
            inputs.specs.push(Spec {
                soc: Arc::new(soc),
                soc_ref: format!("{dir}/{file}"),
                width,
                max_tams,
                kind: if top_k {
                    RequestKind::TopK { k: 3 }
                } else {
                    RequestKind::Point
                },
            });
        };
        for (i, &(name, width, max_tams, top_k)) in COLD_BUILTINS.iter().enumerate() {
            let base = &builtins[["d695", "p21241", "p31108", "p93791"]
                .iter()
                .position(|n| *n == name)
                .expect("listed built-in")];
            let soc = renamed(base, format!("{name}-s{seed}-r{round}-{i}")).expect("valid SOC");
            push(&mut inputs, soc, width, max_tams, top_k);
        }
        for (i, &(family, cores, width, max_tams, top_k)) in COLD_SCENARIOS.iter().enumerate() {
            let (label, build) = families[family];
            let soc = build(cores, rng.below(1_000_000)).expect("scenario cores >= 2");
            let soc = renamed(&soc, format!("{label}-s{seed}-r{round}-{i}")).expect("valid SOC");
            push(&mut inputs, soc, width, max_tams, top_k);
        }
        rng.shuffle(&mut members);
        inputs.rounds.push(members);
    }
    inputs
}

fn warm(rng: &mut Rng, seconds: f64, rate: f64, dir: &str) -> Inputs {
    let mut inputs = Inputs::default();
    // specs[3 * key + kind], kinds point / topk:3 / frontier. Each key
    // is a renamed copy of its SOC, sent by path, so it has a warm-cache
    // entry of its own: keys sharing an entry would leave one another's
    // requests a cost that depends on which key came last.
    for (i, &(name, width, max_tams)) in WARM_KEYS.iter().enumerate() {
        let base = builtin(name).expect("built-in SOC");
        let soc = Arc::new(renamed(&base, format!("{name}-k{i}")).expect("valid SOC"));
        let file = format!("socs/k{i}.soc");
        inputs.files.push((file.clone(), write_soc(&soc)));
        for kind in [
            RequestKind::Point,
            RequestKind::TopK { k: 3 },
            RequestKind::Frontier {
                min_width: 8,
                max_width: width,
                step: 4,
            },
        ] {
            inputs.specs.push(Spec {
                soc: Arc::clone(&soc),
                soc_ref: format!("{dir}/{file}"),
                width,
                max_tams,
                kind,
            });
        }
    }
    inputs.warmup = (0..inputs.specs.len()).collect();
    // A Poisson process conditioned on its count: a fixed number of
    // arrivals, each uniform over the run.
    let count = (rate * seconds).round() as usize;
    let mut dues: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    // Every run sends the same multiset of requests, and each kind of
    // request (spec and whether it is cancelled) is spread evenly over
    // the run from a seeded phase: a few costly sweeps more or less, or
    // bunched together, would move the tail more than any code change
    // this benchmark is meant to show.
    let shares: Vec<f64> = warm_shares()
        .iter()
        .flat_map(|share| [share * (1.0 - CANCEL_SHARE), share * CANCEL_SHARE])
        .collect();
    let mut placed: Vec<(f64, usize)> = Vec::with_capacity(count);
    for (kind, n) in apportion(&shares, count).into_iter().enumerate() {
        let phase = rng.unit();
        placed.extend((0..n).map(|j| ((j as f64 + phase) / n as f64, kind)));
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (i, (due, (_, kind))) in dues.into_iter().zip(placed).enumerate() {
        inputs.ops.push(Op {
            due,
            conn: i % OPEN_CONNECTIONS,
            action: if kind % 2 == 1 {
                Action::SubmitCancel
            } else {
                Action::Submit
            },
            spec: kind / 2,
        });
    }
    for conn in 0..OPEN_CONNECTIONS {
        let mut due = STATS_EVERY / 2.0 + conn as f64 * 0.25;
        while due < seconds {
            inputs.ops.push(Op {
                due,
                conn,
                action: Action::Stats,
                spec: 0,
            });
            due += STATS_EVERY;
        }
    }
    inputs.ops.sort_by(|a, b| a.due.total_cmp(&b.due));
    inputs
}

/// The share of open-loop traffic each warm spec (`3 * key + kind`)
/// gets: Zipf over the keys times 60/25/15 over point/top-K/frontier.
fn warm_shares() -> Vec<f64> {
    let harmonic: f64 = (1..=WARM_KEYS.len()).map(|rank| 1.0 / rank as f64).sum();
    (1..=WARM_KEYS.len())
        .flat_map(|rank| KIND_SHARES.map(|kind| kind / rank as f64 / harmonic))
        .collect()
}

/// Point / top-K / frontier shares of the open-loop traffic.
const KIND_SHARES: [f64; 3] = [0.60, 0.25, 0.15];

/// `count` items split over `shares.len()` kinds by largest remainder:
/// kind `i` gets `shares[i] * count` items, rounded so the total is
/// exact (ties go to the lower index).
fn apportion(shares: &[f64], count: usize) -> Vec<usize> {
    let quotas: Vec<f64> = shares.iter().map(|s| s * count as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = count.saturating_sub(counts.iter().sum());
    for &i in order.iter().cycle().take(short) {
        counts[i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> (Vec<String>, Vec<(String, String)>, String) {
        let lines = inputs.specs.iter().map(Spec::line).collect();
        let schedule = inputs
            .ops
            .iter()
            .map(|op| format!("{:?} {} {:?} {}\n", op.due, op.conn, op.action, op.spec))
            .chain(inputs.rounds.iter().map(|r| format!("{r:?}\n")))
            .collect();
        (lines, inputs.files.clone(), schedule)
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for workload in [Workload::ColdScan, Workload::WarmMix] {
            let a = generate(workload, 7, 3.0, "run");
            let b = generate(workload, 7, 3.0, "run");
            assert_eq!(fingerprint(&a), fingerprint(&b), "{workload:?}");
            let c = generate(workload, 8, 3.0, "run");
            assert_ne!(fingerprint(&a), fingerprint(&c), "{workload:?}");
        }
    }

    #[test]
    fn cold_requests_never_share_a_fingerprint() {
        let inputs = generate(Workload::ColdScan, 1, 3.0, "run");
        let mut prints: Vec<u64> = inputs.specs.iter().map(|s| s.soc.fingerprint()).collect();
        let total = prints.len();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), total);
        assert_eq!(inputs.files.len(), total);
        for round in &inputs.rounds {
            assert_eq!(round.len(), COLD_BUILTINS.len() + COLD_SCENARIOS.len());
        }
    }

    #[test]
    fn open_loop_schedule_has_the_configured_mix() {
        let inputs = generate(Workload::WarmMix, 3, 20.0, "run");
        let submits: Vec<&Op> = inputs
            .ops
            .iter()
            .filter(|op| op.action != Action::Stats)
            .collect();
        assert_eq!(submits.len(), 400);
        assert!(inputs.ops.windows(2).all(|w| w[0].due <= w[1].due));
        let frontier = submits.iter().filter(|op| op.spec % 3 == 2).count();
        let share = frontier as f64 / submits.len() as f64;
        assert!((0.10..0.20).contains(&share), "frontier share {share}");
        let cancels = submits
            .iter()
            .filter(|op| op.action == Action::SubmitCancel)
            .count();
        assert!((15..=25).contains(&cancels), "{cancels} cancels");
        // Zipf: the top key is the most popular one.
        let top = submits.iter().filter(|op| op.spec / 3 == 0).count();
        let last = submits.iter().filter(|op| op.spec / 3 == 19).count();
        assert!(top > 3 * last);
    }

    #[test]
    fn every_seed_sends_the_same_request_mix() {
        let mix = |seed| {
            let mut specs: Vec<usize> = generate(Workload::WarmMix, seed, 20.0, "run")
                .ops
                .iter()
                .filter(|op| op.action != Action::Stats)
                .map(|op| op.spec)
                .collect();
            specs.sort_unstable();
            specs
        };
        assert_eq!(mix(3), mix(4));
        assert_eq!(apportion(&[0.5, 0.3, 0.2], 7), vec![4, 2, 1]);
        assert_eq!(apportion(&warm_shares(), 1000).iter().sum::<usize>(), 1000);
    }
}
