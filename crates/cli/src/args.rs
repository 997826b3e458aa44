//! Hand-rolled argument parsing (no external CLI crates in the
//! offline dependency set).

/// Usage text shown on `--help` or a parse error.
pub const USAGE: &str = "\
rannc-plan — automatic model partitioning (RaNNC reproduction)

USAGE:
  rannc-plan --model <bert|gpt|t5|resnet|mlp> [OPTIONS]
  rannc-plan faults --model <...> [OPTIONS] [FAULT OPTIONS]
  rannc-plan churn --model <...> [OPTIONS] [CHURN OPTIONS]
  rannc-plan verify --model <...> [OPTIONS]
  rannc-plan obs-check [--trace FILE] [--metrics FILE]
  rannc-plan explain <ARTIFACT> [--top N]
  rannc-plan explain --diff <ARTIFACT_A> <ARTIFACT_B>

The `faults` subcommand partitions the model, then simulates a long
training campaign under an injected fault plan with two policies
(degrade-in-place vs replan-always) and reports goodput, MTTR and the
iterations lost since the last checkpoint. The fault plan plays through
the churn engine: stragglers and link faults slow the starting cluster,
and each device failure is a leave event. A rank outside the cluster
exits 1.

The `churn` subcommand simulates continuous cluster churn: a seeded
stream of join/leave/degrade/recover events plays against the plan
under each replanning policy (replan-always, ride-it-out,
degrade-in-place, adaptive), scoring goodput and MTTR and printing the
per-event decision log. Traces replay deterministically from the seed
and can be saved/loaded as JSON spec files.

The `verify` subcommand runs the static verifier (rannc-verify) over
the model's task graph, a partition plan (freshly computed, or a
deployment file via --load), and both synchronous pipeline schedules.
Every diagnostic is printed as `severity[RV0xx]: location: message`;
the exit code is nonzero iff any error-severity diagnostic was found.
With --deep it additionally runs the dataflow certification engine:
liveness-certified peak memory per (stage, device slot) checked
against device capacity (RV100/RV101) and a static race check of the
plan's derived per-rank communication program — collective issue
orders, send/recv pairing, deadlock cycles, dead and duplicate
transfers (RV060-RV064) — under both schedules. --deny-warnings makes
warning-severity diagnostics also fail the exit code.

The `obs-check` subcommand validates observability artifacts produced
by --trace-out / --metrics-out: the Chrome trace must be well-formed
JSON with properly nested slices, and the metrics log must be valid
JSONL with consistent counter/histogram invariants. Exits nonzero if
either file fails validation.

The `explain` subcommand renders a plan flight recording written by
--explain-out: the winning plan's per-stage cost breakdown (fwd/bwd
compute, transfer, all-reduce, optimizer, estimated vs certified peak
memory), the top-k runner-up plans with cost deltas, and the search's
candidate/cache account. With --diff it attributes the cost delta
between two recordings (e.g. before/after a device loss) stage by
stage. Exits nonzero if an artifact fails its schema validation.

MODEL OPTIONS:
  --hidden <N>        hidden size (transformers/mlp; default 1024)
  --layers <N>        layer count (default 24; resnet: 50|101|152)
  --width-factor <N>  resnet width factor (default 1)

CLUSTER OPTIONS:
  --nodes <N>         compute nodes (default 1)
  --gpus-per-node <N> devices per node (default 8)
  --memory-gib <N>    device memory override in GiB (default 32)

TRAINING OPTIONS:
  --batch <N>         global mini-batch size (default 256)
  --k <N>             block count for block-level partitioning (default 32)
  --mixed             mixed-precision training (default fp32)
  --noise <SIGMA>     profiling noise amplitude (default 0)

PLANNER ENGINE OPTIONS:
  --threads <N>       worker threads for the partition search (default:
                      RANNC_THREADS env var, else available parallelism)
  --tp-max <N>        largest tensor-parallel degree the (S, MB, T)
                      search may assign per stage (default 1 = the
                      historical pipeline/data-parallel-only search)
  --planner-stats     print search/cache statistics after partitioning
  --cost-model <analytical|calibrated:FILE>
                      cost model pricing the search and the simulation
                      (default: analytical; `calibrated:FILE` loads a JSON
                      calibration of per-op/per-link correction factors)

FAULT OPTIONS (faults subcommand):
  --fail <RANK@ITER>      kill device RANK at iteration ITER (repeatable)
  --straggler <RANK@X>    rank RANK computes X times slower (repeatable)
                          (RANK is a global device rank for both flags)
  --link-degrade <F>      links keep fraction F of bandwidth, 0 < F <= 1
  --comm-error <P>        per-transfer failure probability in [0, 1)
  --iterations <N>        campaign length in iterations (default 100000)
  --checkpoint-every <N>  checkpoint interval (default 1000)
  --detect-timeout <S>    failure detection time, seconds (default 5)
  --restore-cost <S>      checkpoint restore time, seconds (default 2)
  --replan-cost <S>       re-partition + redeploy time, seconds (default 15)
  --seed <N>              fault-plan seed (default 42)

CHURN OPTIONS (churn subcommand):
  --events <N>          generated cluster events (default 50)
  --mean-gap <N>        mean iterations between events (default 200)
  --churn-trace <FILE>  load the event trace from a JSON spec file
                        instead of generating one from --seed
  --save-trace <FILE>   write the (generated or loaded) trace as JSON
  --policy <replan|ride|degrade|adaptive|all>
                        policy to simulate (default: all, side by side)
  --horizon <N>         iterations the adaptive policy amortizes a
                        replan over (default 2000)
  --iterations, --detect-timeout, --restore-cost, --replan-cost and
  --seed apply as for the faults subcommand

VERIFY OPTIONS (verify subcommand):
  --deep              also run the dataflow certification engine
                      (certified memory + comm-race checks, RV06x/RV1xx)
  --deny-warnings     exit nonzero on warnings, not just errors

OBSERVABILITY OPTIONS:
  --trace-out <FILE>    write a Chrome-trace (Perfetto) JSON of all spans
  --metrics-out <FILE>  write the metrics registry as JSONL
  --obs-summary         print a human-readable metrics summary table
  --trace <FILE>        (obs-check) trace file to validate
  --metrics <FILE>      (obs-check) metrics file to validate
  --explain-out <FILE>  record the partition search and write the explain
                        artifact (schema v2 JSON) for `explain`
  --lose-device <RANK>  after planning, drop device RANK and replan; the
                        recording (and the simulated iteration) then
                        reflect the degraded search
  --diff                (explain) compare two artifacts stage by stage
  --top <N>             (explain) runner-up plans to show (default 5)

OUTPUT OPTIONS:
  --timeline          print an ASCII schedule timeline
  --dot <FILE>        write the partitioned graph in Graphviz format
  --save <FILE>       cache the partition plan (deployment file)
  --load <FILE>       reuse a cached plan instead of re-partitioning
  --help              show this help";

/// Which subcommand was invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Partition and simulate one iteration (the default).
    Plan,
    /// Fault-injection campaign: degrade vs replan report.
    Faults,
    /// Cluster-churn campaign: policy comparison over an event stream.
    Churn,
    /// Static verification of graph, plan, and schedules.
    Verify,
    /// Validate observability artifacts (trace/metrics files).
    ObsCheck,
    /// Render a plan flight recording (or diff two of them).
    Explain,
}

/// `--cost-model` choice: how plans are priced. The calibration file is
/// loaded later (in `main`) so parsing stays I/O-free and testable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CostModelArg {
    /// The pure analytical model (the default).
    #[default]
    Analytical,
    /// Analytical model corrected by the JSON calibration at this path.
    Calibrated(String),
}

/// `--policy` choice for the churn subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChurnPolicyArg {
    /// Replan on every capacity-changing event.
    Replan,
    /// Never replan; restore shed replicas when capacity returns.
    Ride,
    /// Never replan; losses are permanent.
    Degrade,
    /// Cost-compare replan vs ride per event.
    Adaptive,
    /// Run all four policies side by side (the default).
    #[default]
    All,
}

impl ChurnPolicyArg {
    fn parse(v: &str) -> Result<Self, String> {
        match v {
            "replan" => Ok(ChurnPolicyArg::Replan),
            "ride" => Ok(ChurnPolicyArg::Ride),
            "degrade" => Ok(ChurnPolicyArg::Degrade),
            "adaptive" => Ok(ChurnPolicyArg::Adaptive),
            "all" => Ok(ChurnPolicyArg::All),
            other => Err(format!(
                "--policy expects replan|ride|degrade|adaptive|all, got `{other}`"
            )),
        }
    }
}

impl CostModelArg {
    fn parse(v: &str) -> Result<Self, String> {
        match v {
            "analytical" => Ok(CostModelArg::Analytical),
            _ => match v.strip_prefix("calibrated:") {
                Some(path) if !path.is_empty() => Ok(CostModelArg::Calibrated(path.to_string())),
                Some(_) => Err("--cost-model calibrated: needs a file path".into()),
                None => Err(format!(
                    "--cost-model expects `analytical` or `calibrated:FILE`, got `{v}`"
                )),
            },
        }
    }
}

/// Supported model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// BERT-style encoder with MLM+NSP heads.
    Bert,
    /// GPT-style decoder.
    Gpt,
    /// T5-style encoder–decoder.
    T5,
    /// Width-scaled ResNet.
    Resnet,
    /// Deep MLP.
    Mlp,
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Command,
    pub model: ModelKind,
    pub hidden: usize,
    pub layers: usize,
    pub width_factor: usize,
    pub nodes: usize,
    pub gpus_per_node: usize,
    pub memory_gib: Option<usize>,
    pub batch: usize,
    pub k: usize,
    pub mixed: bool,
    pub noise: f64,
    /// Search-engine worker threads (0 = auto).
    pub threads: usize,
    /// Largest tensor-parallel degree per stage (1 = 2D search).
    pub tp_max: usize,
    /// Print planner cache/search statistics.
    pub planner_stats: bool,
    /// Cost model pricing the search and simulation.
    pub cost_model: CostModelArg,
    /// Write a Chrome-trace (Perfetto) JSON of all recorded spans.
    pub trace_out: Option<String>,
    /// Write the metrics registry as a JSONL log.
    pub metrics_out: Option<String>,
    /// Print the human-readable metrics summary table on exit.
    pub obs_summary: bool,
    /// Trace file to validate (`obs-check` subcommand).
    pub obs_trace: Option<String>,
    /// Metrics file to validate (`obs-check` subcommand).
    pub obs_metrics: Option<String>,
    /// Record the partition search into this explain artifact.
    pub explain_out: Option<String>,
    /// Drop this device rank after planning and replan (recorded).
    pub lose_device: Option<usize>,
    /// Artifact file(s) for the `explain` subcommand.
    pub explain_files: Vec<String>,
    /// Diff two artifacts instead of rendering one.
    pub explain_diff: bool,
    /// Runner-up plans to show in `explain` (default 5).
    pub top: usize,
    /// Run the dataflow certification engine in `verify` (deep checks).
    pub deep: bool,
    /// Treat warning-severity diagnostics as fatal in `verify`.
    pub deny_warnings: bool,
    pub timeline: bool,
    pub dot: Option<String>,
    pub save: Option<String>,
    pub load: Option<String>,
    pub help: bool,
    /// Scripted device failures as `(rank, at_iter)`.
    pub fail: Vec<(usize, usize)>,
    /// Stragglers as `(rank, slowdown)`.
    pub straggler: Vec<(usize, f64)>,
    pub link_degrade: Option<f64>,
    pub comm_error: Option<f64>,
    pub iterations: usize,
    pub checkpoint_every: usize,
    pub detect_timeout: f64,
    pub restore_cost: f64,
    pub replan_cost: f64,
    pub seed: u64,
    /// Cluster events to generate (`churn` subcommand).
    pub events: usize,
    /// Mean iteration gap between generated events.
    pub mean_gap: usize,
    /// Load the event trace from this JSON spec file.
    pub churn_trace: Option<String>,
    /// Write the event trace to this JSON file.
    pub save_trace: Option<String>,
    /// Churn policy under test.
    pub policy: ChurnPolicyArg,
    /// Adaptive-policy amortization horizon, iterations.
    pub horizon: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            model: ModelKind::Bert,
            hidden: 1024,
            layers: 24,
            width_factor: 1,
            nodes: 1,
            gpus_per_node: 8,
            memory_gib: None,
            batch: 256,
            k: 32,
            mixed: false,
            noise: 0.0,
            threads: 0,
            tp_max: 1,
            planner_stats: false,
            cost_model: CostModelArg::default(),
            trace_out: None,
            metrics_out: None,
            obs_summary: false,
            obs_trace: None,
            obs_metrics: None,
            explain_out: None,
            lose_device: None,
            explain_files: Vec::new(),
            explain_diff: false,
            top: 5,
            deep: false,
            deny_warnings: false,
            timeline: false,
            dot: None,
            save: None,
            load: None,
            help: false,
            command: Command::Plan,
            fail: Vec::new(),
            straggler: Vec::new(),
            link_degrade: None,
            comm_error: None,
            iterations: 100_000,
            checkpoint_every: 1000,
            detect_timeout: 5.0,
            restore_cost: 2.0,
            replan_cost: 15.0,
            seed: 42,
            events: 50,
            mean_gap: 200,
            churn_trace: None,
            save_trace: None,
            policy: ChurnPolicyArg::default(),
            horizon: 2000,
        }
    }
}

impl Args {
    /// Parse an argument iterator (without the program name).
    pub fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut it = it.peekable();
        let mut a = Args::default();
        let mut model_given = false;
        // subcommand dispatch on the first positional argument
        match it.peek().map(String::as_str) {
            Some("faults") => {
                it.next();
                a.command = Command::Faults;
            }
            Some("churn") => {
                it.next();
                a.command = Command::Churn;
            }
            Some("verify") => {
                it.next();
                a.command = Command::Verify;
            }
            Some("obs-check") => {
                it.next();
                a.command = Command::ObsCheck;
            }
            Some("explain") => {
                it.next();
                a.command = Command::Explain;
            }
            _ => {}
        }
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--model" => {
                    let v = value(&flag, &mut it)?;
                    a.model = match v.as_str() {
                        "bert" => ModelKind::Bert,
                        "gpt" => ModelKind::Gpt,
                        "t5" => ModelKind::T5,
                        "resnet" => ModelKind::Resnet,
                        "mlp" => ModelKind::Mlp,
                        other => return Err(format!("unknown model `{other}`")),
                    };
                    model_given = true;
                }
                "--hidden" => a.hidden = num(&flag, &mut it)?,
                "--layers" => a.layers = num(&flag, &mut it)?,
                "--width-factor" => a.width_factor = num(&flag, &mut it)?,
                "--nodes" => a.nodes = num(&flag, &mut it)?,
                "--gpus-per-node" => a.gpus_per_node = num(&flag, &mut it)?,
                "--memory-gib" => a.memory_gib = Some(num(&flag, &mut it)?),
                "--batch" => a.batch = num(&flag, &mut it)?,
                "--k" => a.k = num(&flag, &mut it)?,
                "--mixed" => a.mixed = true,
                "--noise" => {
                    a.noise = value(&flag, &mut it)?
                        .parse()
                        .map_err(|e| format!("--noise: {e}"))?
                }
                "--threads" => a.threads = num(&flag, &mut it)?,
                "--tp-max" => a.tp_max = num(&flag, &mut it)?,
                "--planner-stats" => a.planner_stats = true,
                "--cost-model" => a.cost_model = CostModelArg::parse(&value(&flag, &mut it)?)?,
                "--trace-out" => a.trace_out = Some(value(&flag, &mut it)?),
                "--metrics-out" => a.metrics_out = Some(value(&flag, &mut it)?),
                "--obs-summary" => a.obs_summary = true,
                "--trace" => a.obs_trace = Some(value(&flag, &mut it)?),
                "--metrics" => a.obs_metrics = Some(value(&flag, &mut it)?),
                "--explain-out" => a.explain_out = Some(value(&flag, &mut it)?),
                "--lose-device" => a.lose_device = Some(num(&flag, &mut it)?),
                "--diff" => a.explain_diff = true,
                "--top" => a.top = num(&flag, &mut it)?,
                "--deep" => a.deep = true,
                "--deny-warnings" => a.deny_warnings = true,
                "--timeline" => a.timeline = true,
                "--dot" => a.dot = Some(value(&flag, &mut it)?),
                "--save" => a.save = Some(value(&flag, &mut it)?),
                "--load" => a.load = Some(value(&flag, &mut it)?),
                "--fail" => {
                    let (rank, iter) = at_pair(&flag, &value(&flag, &mut it)?)?;
                    a.fail.push((rank, iter as usize));
                }
                "--straggler" => {
                    let (rank, slow) = at_pair(&flag, &value(&flag, &mut it)?)?;
                    if slow < 1.0 {
                        return Err("--straggler slowdown must be >= 1".into());
                    }
                    a.straggler.push((rank, slow));
                }
                "--link-degrade" => {
                    let f = float(&flag, &mut it)?;
                    if !(f > 0.0 && f <= 1.0) {
                        return Err("--link-degrade must be in (0, 1]".into());
                    }
                    a.link_degrade = Some(f);
                }
                "--comm-error" => {
                    let p = float(&flag, &mut it)?;
                    if !(0.0..1.0).contains(&p) {
                        return Err("--comm-error must be in [0, 1)".into());
                    }
                    a.comm_error = Some(p);
                }
                "--iterations" => a.iterations = num(&flag, &mut it)?,
                "--checkpoint-every" => a.checkpoint_every = num(&flag, &mut it)?,
                "--detect-timeout" => a.detect_timeout = float(&flag, &mut it)?,
                "--restore-cost" => a.restore_cost = float(&flag, &mut it)?,
                "--replan-cost" => a.replan_cost = float(&flag, &mut it)?,
                "--seed" => a.seed = num(&flag, &mut it)? as u64,
                "--events" => a.events = num(&flag, &mut it)?,
                "--mean-gap" => a.mean_gap = num(&flag, &mut it)?,
                "--churn-trace" => a.churn_trace = Some(value(&flag, &mut it)?),
                "--save-trace" => a.save_trace = Some(value(&flag, &mut it)?),
                "--policy" => a.policy = ChurnPolicyArg::parse(&value(&flag, &mut it)?)?,
                "--horizon" => a.horizon = num(&flag, &mut it)?,
                "--help" | "-h" => a.help = true,
                other if a.command == Command::Explain && !other.starts_with("--") => {
                    a.explain_files.push(other.to_string());
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if a.command == Command::ObsCheck {
            if a.obs_trace.is_none() && a.obs_metrics.is_none() && !a.help {
                return Err("obs-check needs --trace and/or --metrics".into());
            }
            return Ok(a);
        }
        if a.command == Command::Explain {
            if !a.help {
                let want = if a.explain_diff { 2 } else { 1 };
                if a.explain_files.len() != want {
                    return Err(if a.explain_diff {
                        "explain --diff needs exactly two artifact files".into()
                    } else {
                        "explain needs exactly one artifact file".into()
                    });
                }
            }
            return Ok(a);
        }
        if !model_given && !a.help {
            return Err("--model is required".into());
        }
        if a.nodes == 0 || a.gpus_per_node == 0 || a.batch == 0 || a.k == 0 {
            return Err("numeric options must be positive".into());
        }
        if a.tp_max == 0 {
            return Err("--tp-max must be positive".into());
        }
        if a.command == Command::Faults && (a.iterations == 0 || a.checkpoint_every == 0) {
            return Err("--iterations and --checkpoint-every must be positive".into());
        }
        if a.command == Command::Churn {
            if a.iterations == 0 {
                return Err("--iterations must be positive".into());
            }
            if a.events == 0 && a.churn_trace.is_none() {
                return Err("churn needs --events > 0 or a --churn-trace file".into());
            }
            if a.mean_gap == 0 || a.horizon == 0 {
                return Err("--mean-gap and --horizon must be positive".into());
            }
        }
        Ok(a)
    }
}

fn value(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn num(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    value(flag, it)?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn float(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<f64, String> {
    value(flag, it)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse a `RANK@VALUE` pair (e.g. `--fail 3@500`, `--straggler 0@2.5`).
fn at_pair(flag: &str, v: &str) -> Result<(usize, f64), String> {
    let (rank, val) = v
        .split_once('@')
        .ok_or_else(|| format!("{flag} expects RANK@VALUE, got `{v}`"))?;
    let rank = rank.parse().map_err(|e| format!("{flag} rank: {e}"))?;
    let val = val.parse().map_err(|e| format!("{flag} value: {e}"))?;
    Ok((rank, val))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_command_line() {
        let a = parse(
            "--model bert --hidden 2048 --layers 96 --nodes 4 --batch 256 --k 32 --mixed --timeline",
        )
        .unwrap();
        assert_eq!(a.model, ModelKind::Bert);
        assert_eq!(a.hidden, 2048);
        assert_eq!(a.layers, 96);
        assert_eq!(a.nodes, 4);
        assert!(a.mixed);
        assert!(a.timeline);
    }

    #[test]
    fn model_required() {
        assert!(parse("--hidden 128").is_err());
        assert!(parse("--help").unwrap().help);
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = parse("--model bert --frobnicate").unwrap_err();
        assert!(e.contains("frobnicate"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse("--model bert --hidden").is_err());
    }

    #[test]
    fn zero_rejected() {
        assert!(parse("--model bert --nodes 0").is_err());
    }

    #[test]
    fn noise_and_dot() {
        let a = parse("--model t5 --noise 0.1 --dot /tmp/x.dot").unwrap();
        assert_eq!(a.noise, 0.1);
        assert_eq!(a.dot.as_deref(), Some("/tmp/x.dot"));
    }

    #[test]
    fn save_load_flags() {
        let a = parse("--model bert --save /tmp/p.rncp").unwrap();
        assert_eq!(a.save.as_deref(), Some("/tmp/p.rncp"));
        let a = parse("--model bert --load /tmp/p.rncp").unwrap();
        assert_eq!(a.load.as_deref(), Some("/tmp/p.rncp"));
    }

    #[test]
    fn faults_subcommand() {
        let a = parse(
            "faults --model mlp --hidden 64 --layers 8 --nodes 2 \
             --fail 0@50000 --straggler 3@2.5 --link-degrade 0.5 --comm-error 0.1 \
             --iterations 200000 --checkpoint-every 500 --seed 7",
        )
        .unwrap();
        assert_eq!(a.command, Command::Faults);
        assert_eq!(a.fail, vec![(0, 50_000)]);
        assert_eq!(a.straggler, vec![(3, 2.5)]);
        assert_eq!(a.link_degrade, Some(0.5));
        assert_eq!(a.comm_error, Some(0.1));
        assert_eq!(a.iterations, 200_000);
        assert_eq!(a.checkpoint_every, 500);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn plan_is_default_command() {
        assert_eq!(parse("--model bert").unwrap().command, Command::Plan);
    }

    #[test]
    fn verify_subcommand() {
        let a = parse("verify --model mlp --nodes 2 --k 8").unwrap();
        assert_eq!(a.command, Command::Verify);
        assert_eq!(a.nodes, 2);
        let a = parse("verify --model bert --load /tmp/p.rncp").unwrap();
        assert_eq!(a.load.as_deref(), Some("/tmp/p.rncp"));
    }

    #[test]
    fn deep_verify_flags() {
        let d = parse("verify --model mlp").unwrap();
        assert!(!d.deep && !d.deny_warnings);
        let a = parse("verify --model mlp --deep --deny-warnings").unwrap();
        assert!(a.deep);
        assert!(a.deny_warnings);
    }

    #[test]
    fn bad_fault_pairs_rejected() {
        assert!(parse("faults --model mlp --fail 3").is_err());
        assert!(parse("faults --model mlp --fail x@5").is_err());
        assert!(parse("faults --model mlp --straggler 0@0.5").is_err());
        assert!(parse("faults --model mlp --link-degrade 0").is_err());
        assert!(parse("faults --model mlp --comm-error 1.0").is_err());
        assert!(parse("faults --model mlp --iterations 0").is_err());
    }

    #[test]
    fn planner_engine_flags() {
        let a = parse("--model bert --threads 4 --planner-stats").unwrap();
        assert_eq!(a.threads, 4);
        assert!(a.planner_stats);
        let d = parse("--model bert").unwrap();
        assert_eq!(d.threads, 0, "0 = auto-resolve");
        assert!(!d.planner_stats);
    }

    #[test]
    fn tp_max_flag() {
        let d = parse("--model bert").unwrap();
        assert_eq!(d.tp_max, 1, "third axis is opt-in");
        let a = parse("--model bert --tp-max 8").unwrap();
        assert_eq!(a.tp_max, 8);
        let v = parse("verify --model bert --tp-max 4 --deep").unwrap();
        assert_eq!(v.tp_max, 4);
        assert!(parse("--model bert --tp-max 0").is_err());
        assert!(parse("--model bert --tp-max").is_err());
    }

    #[test]
    fn cost_model_flag() {
        let d = parse("--model bert").unwrap();
        assert_eq!(d.cost_model, CostModelArg::Analytical);
        let a = parse("--model bert --cost-model analytical").unwrap();
        assert_eq!(a.cost_model, CostModelArg::Analytical);
        let a = parse("--model bert --cost-model calibrated:/tmp/cal.json").unwrap();
        assert_eq!(
            a.cost_model,
            CostModelArg::Calibrated("/tmp/cal.json".into())
        );
        let a = parse("faults --model mlp --cost-model calibrated:c.json").unwrap();
        assert_eq!(a.cost_model, CostModelArg::Calibrated("c.json".into()));
        assert!(parse("--model bert --cost-model magic").is_err());
        assert!(parse("--model bert --cost-model calibrated:").is_err());
        assert!(parse("--model bert --cost-model").is_err());
    }

    #[test]
    fn observability_flags() {
        let a =
            parse("--model bert --trace-out /tmp/t.json --metrics-out /tmp/m.jsonl --obs-summary")
                .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.jsonl"));
        assert!(a.obs_summary);
        let d = parse("--model bert").unwrap();
        assert_eq!(d.trace_out, None);
        assert_eq!(d.metrics_out, None);
        assert!(!d.obs_summary);
    }

    #[test]
    fn obs_check_subcommand() {
        let a = parse("obs-check --trace /tmp/t.json --metrics /tmp/m.jsonl").unwrap();
        assert_eq!(a.command, Command::ObsCheck);
        assert_eq!(a.obs_trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(a.obs_metrics.as_deref(), Some("/tmp/m.jsonl"));
        // --model is not required for obs-check
        let a = parse("obs-check --trace /tmp/t.json").unwrap();
        assert_eq!(a.obs_metrics, None);
        // but at least one input file is
        assert!(parse("obs-check").is_err());
    }

    #[test]
    fn explain_subcommand() {
        let a = parse("explain /tmp/a.json").unwrap();
        assert_eq!(a.command, Command::Explain);
        assert_eq!(a.explain_files, vec!["/tmp/a.json".to_string()]);
        assert!(!a.explain_diff);
        assert_eq!(a.top, 5, "default runner-up count");
        let a = parse("explain /tmp/a.json --top 3").unwrap();
        assert_eq!(a.top, 3);
        let a = parse("explain --diff /tmp/a.json /tmp/b.json").unwrap();
        assert!(a.explain_diff);
        assert_eq!(a.explain_files.len(), 2);
        // arity is validated per mode
        assert!(parse("explain").is_err());
        assert!(parse("explain a.json b.json").is_err());
        assert!(parse("explain --diff a.json").is_err());
        // positional files only exist under the explain subcommand
        assert!(parse("--model bert stray.json").is_err());
    }

    #[test]
    fn explain_out_and_lose_device_flags() {
        let a = parse("--model bert --explain-out /tmp/e.json --lose-device 3").unwrap();
        assert_eq!(a.explain_out.as_deref(), Some("/tmp/e.json"));
        assert_eq!(a.lose_device, Some(3));
        let d = parse("--model bert").unwrap();
        assert_eq!(d.explain_out, None);
        assert_eq!(d.lose_device, None);
    }

    #[test]
    fn churn_subcommand() {
        let a = parse(
            "churn --model bert --nodes 2 --events 50 --mean-gap 100 \
             --policy adaptive --horizon 5000 --seed 9 --save-trace /tmp/t.json",
        )
        .unwrap();
        assert_eq!(a.command, Command::Churn);
        assert_eq!(a.events, 50);
        assert_eq!(a.mean_gap, 100);
        assert_eq!(a.policy, ChurnPolicyArg::Adaptive);
        assert_eq!(a.horizon, 5000);
        assert_eq!(a.seed, 9);
        assert_eq!(a.save_trace.as_deref(), Some("/tmp/t.json"));
        // defaults: all policies, 50 generated events
        let d = parse("churn --model bert").unwrap();
        assert_eq!(d.policy, ChurnPolicyArg::All);
        assert_eq!(d.events, 50);
        // spec-file traces skip generation
        let t = parse("churn --model bert --churn-trace /tmp/spec.json").unwrap();
        assert_eq!(t.churn_trace.as_deref(), Some("/tmp/spec.json"));
    }

    #[test]
    fn bad_churn_flags_rejected() {
        assert!(parse("churn --model bert --policy magic").is_err());
        assert!(parse("churn --model bert --events 0").is_err());
        assert!(parse("churn --model bert --mean-gap 0").is_err());
        assert!(parse("churn --model bert --horizon 0").is_err());
        assert!(parse("churn --model bert --iterations 0").is_err());
        // zero generated events is fine when a trace file supplies them
        assert!(parse("churn --model bert --events 0 --churn-trace /tmp/t.json").is_ok());
    }

    #[test]
    fn resnet_flags() {
        let a = parse("--model resnet --layers 152 --width-factor 8").unwrap();
        assert_eq!(a.model, ModelKind::Resnet);
        assert_eq!(a.width_factor, 8);
    }
}
