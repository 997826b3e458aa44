//! `rannc_benchmark` — end-to-end and per-layer benchmark of the RaNNC
//! planner. See README.md beside this crate for the workloads, metrics
//! and rules.
//!
//! ```sh
//! rannc_benchmark --workload bert256-d128 --seed 7 --seconds 20 --trace 0
//! rannc_benchmark run   [--seed N] [--seconds S]     # every workload
//! rannc_benchmark trace [--seed N] [--seconds S]     # every workload, per layer
//! rannc_benchmark aa [--runs R] [--seed N] [--seconds S]
//! ```
//!
//! A single-workload run measures in this process and ends its output
//! with one JSON result line. `run`, `trace` and `aa` start one child
//! process per workload, one after another, and wait for each.

mod ledger;
mod rebuild;
mod report;
mod speed;
mod stats;
mod workload;

use report::{Better, END_TO_END};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, SETUP_REPEATS, THREADS};

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 7;
/// Where runs write traces, reports and their lock, under the current
/// directory.
const OUT_DIR: &str = "rannc_benchmark_out";
/// How long a run waits for another run's lock before giving up.
const LOCK_WAIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 5,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--runs" => a.runs = number(value()?)?.max(1) as usize,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: rannc_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       rannc_benchmark run|trace [--seed N] [--seconds S]
       rannc_benchmark aa [--runs R] [--seed N] [--seconds S]
       (all take --out-dir DIR, default rannc_benchmark_out)";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "aa")) => (m, &argv[1..]),
        _ => ("single", &argv[..]),
    };
    let code = match parse_args(rest) {
        Err(e) => {
            eprintln!("rannc_benchmark: {e}\n{USAGE}");
            2
        }
        Ok(args) => match mode {
            "run" => fleet(&args, false),
            "trace" => fleet(&args, true),
            "aa" => aa(&args),
            _ => single(&args),
        },
    };
    std::process::exit(code);
}

/// One workload, measured in this process.
fn single(args: &Args) -> i32 {
    let Some(name) = &args.workload else {
        eprintln!("rannc_benchmark: no --workload given\n{USAGE}");
        return 2;
    };
    let Some(w) = Workload::parse(name) else {
        eprintln!("rannc_benchmark: unknown workload `{name}`");
        return 2;
    };
    let _lock = match RunLock::acquire(&args.out_dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rannc_benchmark: {e}");
            return 1;
        }
    };
    // the block phase's worker count too, without consulting RANNC_THREADS
    rannc::core::par::set_threads(THREADS);
    let ops = w.ops_for(args.seconds);
    println!(
        "# {} nproc {} threads {THREADS} seed {} seconds {} ops {ops} warmups {} \
         setup_repeats {SETUP_REPEATS} trace {} rev {}",
        w.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        args.seconds,
        w.warmups(),
        u8::from(args.trace),
        git_revision().unwrap_or_else(|| "unknown".into()),
    );

    let r = workload::run(w, ops, args.trace);
    println!(
        "# {} speed {:.4}: reference kernel median {:.4} ms against {:.4} ms; \
         every time below is divided by it",
        w.name(),
        r.speed(),
        stats::median(&r.kernel_s) * 1e3,
        speed::KERNEL_REF_S * 1e3
    );
    let mut failures = r.failures.clone();
    let metrics = if args.trace {
        report::per_layer(&r)
    } else {
        report::end_to_end(&r)
    }
    .unwrap_or_else(|e| {
        failures.push(e);
        Vec::new()
    });
    if let Some(tr) = &r.trace {
        eprint!("{}", ledger_table(w.name(), &tr.requests));
        let path = args.out_dir.join(format!("{}.trace.json", w.name()));
        match fs::write(&path, rannc::obs::sink::chrome_trace_json(&tr.events)) {
            Ok(()) => eprintln!("{}: Chrome trace in {}", w.name(), path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for f in &failures {
        eprintln!("{}: FAILED: {f}", w.name());
    }
    for m in &metrics {
        println!("{}/{} {} {}", w.name(), m.name, m.value, m.unit);
    }
    let attempted = r.ops.max(1);
    let failed = failures.len().min(attempted);
    println!("{}/ops {} count", w.name(), r.ops);
    println!("{}/ops_failed {failed} count", w.name());
    println!("{}", report::result_json(attempted, failed, &metrics));
    i32::from(failed > 0)
}

/// Per-layer table of one traced run: p50 and mean wall self time per
/// request, and each layer's share of the total.
fn ledger_table(workload: &str, requests: &[ledger::Request]) -> String {
    let total: f64 = requests.iter().map(|r| r.wall_s).sum();
    let mut out = format!(
        "{workload}: per-layer wall self time over {} traced request(s)\n  {:<24} {:>10} {:>10} {:>7}\n",
        requests.len(),
        "layer",
        "p50 ms",
        "mean ms",
        "share"
    );
    for entry in ledger::entries() {
        let per: Vec<f64> = requests
            .iter()
            .map(|r| r.self_s.get(entry).copied().unwrap_or(0.0))
            .collect();
        let sum: f64 = per.iter().sum();
        out += &format!(
            "  {entry:<24} {:>10.3} {:>10.3} {:>6.1}%\n",
            stats::median(&per) * 1e3,
            stats::mean(&per) * 1e3,
            100.0 * sum / total
        );
    }
    out
}

/// Run every workload in a child process of its own, one after another.
/// Returns each workload's result, or why it has none.
fn run_children(args: &Args, trace: bool) -> Vec<(Workload, Result<report::Parsed, String>)> {
    Workload::BENCHMARK
        .into_iter()
        .map(|w| (w, run_child(args, w, trace)))
        .collect()
}

fn run_child(args: &Args, w: Workload, trace: bool) -> Result<report::Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let parsed = report::parse_result(last)?;
    if !out.status.success() || !parsed.correct {
        return Err(format!(
            "{}: {} of {} request(s) failed ({})",
            w.name(),
            parsed.failed,
            parsed.attempted,
            out.status
        ));
    }
    Ok(parsed)
}

/// `run` / `trace`: every workload once; writes the combined results.
fn fleet(args: &Args, trace: bool) -> i32 {
    let t = Instant::now();
    let results = run_children(args, trace);
    let mut doc = format!(
        "{{\"mode\": \"{}\", \"seed\": {}, \"seconds\": {}, \"threads\": {THREADS}, \
         \"rev\": \"{}\", \"workloads\": {{",
        if trace { "trace" } else { "run" },
        args.seed,
        args.seconds,
        git_revision().unwrap_or_else(|| "unknown".into())
    );
    let mut failed = 0;
    for (i, (w, res)) in results.iter().enumerate() {
        let line = match res {
            Ok(p) => report::result_json(p.attempted, p.failed, &p.metrics),
            Err(e) => {
                eprintln!("FAILED: {e}");
                failed += 1;
                "null".into()
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        doc += &format!("{sep}\"{}\": {line}", w.name());
    }
    doc += "}}\n";
    let path = args
        .out_dir
        .join(if trace { "trace.json" } else { "run.json" });
    if let Err(e) = fs::create_dir_all(&args.out_dir).and_then(|()| fs::write(&path, doc)) {
        eprintln!("cannot write {}: {e}", path.display());
        failed += 1;
    }
    println!(
        "# {} workload(s) in {:.1} s, {failed} failed; results in {}",
        results.len(),
        t.elapsed().as_secs_f64(),
        path.display()
    );
    i32::from(failed > 0)
}

/// `aa`: two sets of full runs of the same build, alternating A and B,
/// and for every workload × end-to-end metric each set's median and IQR
/// and whether the two medians agree within the metric's bound.
fn aa(args: &Args) -> i32 {
    // (workload, metric) → per set, the values of its runs
    let mut values: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    let mut failed = 0;
    let t = Instant::now();
    for run in 0..args.runs {
        let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            eprintln!("aa: run {} of set {}", run + 1, ["A", "B"][set]);
            for (wi, (_, res)) in run_children(args, false).into_iter().enumerate() {
                match res {
                    Ok(p) => {
                        for (mi, def) in END_TO_END.iter().enumerate() {
                            if let Some(m) = p.metrics.iter().find(|m| m.name == def.name) {
                                values.entry((wi, mi)).or_default()[set].push(m.value);
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        failed += 1;
                    }
                }
            }
        }
    }
    println!(
        "# A/A: {} run(s) per set, seconds {}, seed {}, {:.0} s in all",
        args.runs,
        args.seconds,
        args.seed,
        t.elapsed().as_secs_f64()
    );
    for ((wi, mi), [a, b]) in &values {
        let def = &END_TO_END[*mi];
        let (ma, mb) = (stats::median(a), stats::median(b));
        let gap = match def.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let pass = if def.name == "sim_samples_per_s" {
            a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits())
        } else {
            gap.abs() <= def.bound
        };
        failed += usize::from(!pass);
        let note = if pass && gap.abs() > def.bound / 2.0 {
            "  (gap over half the bound: raise the op count)"
        } else {
            ""
        };
        println!(
            "{}/{}  A {:.6} (IQR {:.1}%)  B {:.6} (IQR {:.1}%)  gap {:+.2}%  bound {:.1}%  {}{note}",
            Workload::BENCHMARK[*wi].name(),
            def.name,
            ma,
            100.0 * stats::relative_iqr(a),
            mb,
            100.0 * stats::relative_iqr(b),
            100.0 * gap,
            100.0 * def.bound,
            if pass { "PASS" } else { "FAIL" },
        );
    }
    i32::from(failed > 0)
}

/// Holds `<out-dir>/run.lock` while a workload is measured, so two
/// benchmark runs never measure at the same time. A lock whose process
/// is gone is taken over.
struct RunLock(PathBuf);

impl RunLock {
    fn acquire(dir: &Path) -> Result<RunLock, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("run.lock");
        let deadline = Instant::now() + LOCK_WAIT;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let lock = RunLock(path);
                    write!(f, "{}", std::process::id())
                        .map_err(|e| format!("cannot write {}: {e}", lock.0.display()))?;
                    return Ok(lock);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if let Some(pid) = holder {
                        if !Path::new(&format!("/proc/{pid}")).exists() {
                            fs::remove_file(&path).ok();
                            continue;
                        }
                    }
                    if Instant::now() > deadline {
                        return Err(format!(
                            "another benchmark run holds {} (pid {holder:?})",
                            path.display()
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
                Err(e) => return Err(format!("cannot create {}: {e}", path.display())),
            }
        }
    }
}

impl Drop for RunLock {
    fn drop(&mut self) {
        fs::remove_file(&self.0).ok();
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_revision() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(sha) = fs::read_to_string(Path::new(".git").join(name)) {
        return Some(sha.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc::obs::json::{parse, Value};

    #[test]
    fn benchmark_json_describes_this_binary() {
        // the repository root is five levels above this crate
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let field =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::BENCHMARK.map(|w| w.name()));
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS as f64));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field(m, "better"), better, "{}", def.name);
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(def.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), report::PER_LAYER.len());
        for (m, def) in layers.iter().zip(&report::PER_LAYER) {
            assert_eq!(
                (field(m, "name"), field(m, "unit")),
                (def.name.into(), def.unit.into())
            );
        }
    }
}
