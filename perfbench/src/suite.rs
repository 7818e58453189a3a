//! Everything in one command: `suite` runs each workload and pass in a
//! child process of its own (a fresh address space and its own pinning,
//! so one workload's threads and heap never show in another's host
//! numbers) and prints the table; `compare` sets two suite files side
//! by side under the bounds `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use amoeba_telemetry::json::{self, Value};

use crate::stats::{median_f64, quartile_spread};
use crate::workload::Workload;

pub const DEFAULT_SEED: u64 = 0x6C0D;
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Where the declared workloads, metrics, directions and bounds live,
/// relative to the directory the benchmark is run from.
const DECLARATION: &str = "BENCHMARK.json";

/// Metrics read off the host clock. Everything else is a function of
/// the seed and the simulated window alone, and repeats exactly.
pub const HOST_CLOCK: [&str; 12] = [
    "setup_s",
    "host_cpu_ms_per_sim_s",
    "peak_rss_mb",
    "sim.host_us_per_event",
    "sim.host_ms_per_sim_s",
    "sim.ctx_switches_per_event",
    "sim.sys_share",
    "sim.threads_peak",
    "core.dir_op_encode_ns",
    "group.accept_decode_ns",
    "flip.payload_slice_ns",
    "telemetry.host_overhead_ratio",
];

/// `(workload, trace, metric)` → `(unit, one value per repeat)`.
type Table = BTreeMap<(String, u64, String), (String, Vec<f64>)>;

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("missing key {key}"))
}

fn metrics_of(result: &Value) -> Result<Vec<(String, String, f64)>, String> {
    let Value::Obj(metrics) = field(result, "metrics")? else {
        return Err("metrics is not an object".to_owned());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = field(m, "unit")?.as_str().ok_or("unit is not a string")?;
            let value = field(m, "value")?.as_f64().ok_or("value is not a number")?;
            Ok((name.clone(), unit.to_owned(), value))
        })
        .collect()
}

/// Runs one workload and pass in a child and returns whether it was
/// pinned to one CPU, and its result object.
fn child(
    workload: Workload,
    trace: u64,
    seed: u64,
    window: &[String],
) -> Result<(bool, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", &trace.to_string()])
        .args(window)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the child run: {e}"))?;
    let what = format!("{} --trace {trace}", workload.name());
    if !out.status.success() {
        return Err(format!("{what} failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = |l: Option<&str>, which: &str| {
        let l = l.ok_or(format!("{what} printed nothing"))?;
        json::parse(l).map_err(|e| format!("{what}: {which} line: {e}"))
    };
    let host = line(stdout.lines().next(), "first")?;
    let result = line(stdout.lines().last(), "result")?;
    if field(&result, "correct")? != &Value::Bool(true) {
        return Err(format!("{what}: output checks failed"));
    }
    Ok((field(&host, "pinned")? == &Value::Bool(true), result))
}

fn median_and_spread(values: &[f64]) -> (f64, Option<f64>) {
    (median_f64(&mut values.to_vec()), quartile_spread(values))
}

fn print_table(table: &Table) {
    let mut section = None;
    for ((workload, trace, name), (unit, values)) in table {
        if section != Some((workload, trace)) {
            section = Some((workload, trace));
            let pass = if *trace == 0 {
                "end to end, untraced"
            } else {
                "per layer, traced"
            };
            println!("\n== {workload} ({pass}) ==");
        }
        let (median, spread) = median_and_spread(values);
        let spread = spread.map_or(String::new(), |s| format!("  spread {:.1} %", s * 100.0));
        println!("  {name:<40} {median:>16.4} {unit}{spread}");
    }
}

/// The results of one `suite` invocation, as written by `--out`.
struct SuiteFile {
    seed: u64,
    /// The window flags every run was given.
    window: String,
    /// Whether every run was pinned to one CPU.
    pinned: bool,
    table: Table,
}

fn write_file(path: &str, f: &SuiteFile) -> Result<(), String> {
    let rows: Vec<String> = f
        .table
        .iter()
        .map(|((workload, trace, name), (unit, values))| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!(
                "  {{\"workload\": \"{workload}\", \"trace\": {trace}, \"metric\": \"{name}\", \
                 \"unit\": \"{unit}\", \"values\": [{}]}}",
                values.join(", ")
            )
        })
        .collect();
    let text = format!(
        "{{\"seed\": {}, \"window\": \"{}\", \"pinned\": {}, \"metrics\": [\n{}\n]}}\n",
        f.seed,
        f.window,
        f.pinned,
        rows.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn read_file(path: &str) -> Result<SuiteFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = field(&doc, "metrics")?
        .as_array()
        .ok_or("metrics is not an array")?;
    let table = rows
        .iter()
        .map(|row| {
            let text = |key| Ok::<_, String>(field(row, key)?.as_str().ok_or(key)?.to_owned());
            let values = field(row, "values")?
                .as_array()
                .ok_or("values")?
                .iter()
                .map(|v| v.as_f64().ok_or("a value is not a number".to_owned()))
                .collect::<Result<Vec<f64>, String>>()?;
            let trace = field(row, "trace")?.as_u64().ok_or("trace")?;
            Ok((
                (text("workload")?, trace, text("metric")?),
                (text("unit")?, values),
            ))
        })
        .collect::<Result<Table, String>>()?;
    Ok(SuiteFile {
        seed: field(&doc, "seed")?.as_u64().ok_or("seed")?,
        window: field(&doc, "window")?.as_str().ok_or("window")?.to_owned(),
        pinned: field(&doc, "pinned")? == &Value::Bool(true),
        table,
    })
}

/// One declared metric: unit, whether lower is better, and its bound.
struct Declared {
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

struct Declaration {
    workloads: Vec<String>,
    end_to_end: Vec<(String, Declared)>,
    per_layer: Vec<(String, Declared)>,
}

fn declaration() -> Result<Declaration, String> {
    let text = std::fs::read_to_string(DECLARATION)
        .map_err(|e| format!("reading {DECLARATION} (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, Declared)>, String> {
        field(&doc, key)?
            .as_array()
            .ok_or(format!("{key} is not an array"))?
            .iter()
            .map(|m| {
                let text = |k| Ok::<_, String>(field(m, k)?.as_str().ok_or(k)?.to_owned());
                let declared = Declared {
                    unit: text("unit")?,
                    lower_is_better: text("better")? == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                };
                Ok((text("name")?, declared))
            })
            .collect()
    };
    let workloads = field(&doc, "workloads")?
        .as_array()
        .ok_or("workloads is not an array")?
        .iter()
        .map(|w| Ok(field(w, "name")?.as_str().ok_or("name")?.to_owned()))
        .collect::<Result<Vec<String>, String>>()?;
    Ok(Declaration {
        workloads,
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Name drift fails: what a run emits must be exactly what is declared.
fn check_names(table: &Table) -> Result<(), String> {
    let decl = declaration()?;
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if decl.workloads != ours {
        return Err(format!(
            "{DECLARATION} declares workloads {:?}, the suite ran {ours:?}",
            decl.workloads
        ));
    }
    for workload in &decl.workloads {
        for (trace, declared) in [(0, &decl.end_to_end), (1, &decl.per_layer)] {
            let mut emitted: Vec<(&str, &str)> = table
                .iter()
                .filter(|((w, t, _), _)| w == workload && *t == trace)
                .map(|((_, _, name), (unit, _))| (name.as_str(), unit.as_str()))
                .collect();
            let mut wanted: Vec<(&str, &str)> = declared
                .iter()
                .map(|(n, d)| (n.as_str(), d.unit.as_str()))
                .collect();
            emitted.sort_unstable();
            wanted.sort_unstable();
            if emitted != wanted {
                let only = |a: &[(&str, &str)], b: &[(&str, &str)]| -> Vec<String> {
                    a.iter()
                        .filter(|x| !b.contains(x))
                        .map(|(n, u)| format!("{n} [{u}]"))
                        .collect()
                };
                return Err(format!(
                    "{workload} --trace {trace}: emitted but not declared: {:?}; declared but not emitted: {:?}",
                    only(&emitted, &wanted),
                    only(&wanted, &emitted)
                ));
            }
        }
    }
    Ok(())
}

pub fn suite(flags: &[(&str, &str)]) -> Result<(), String> {
    let mut seed = DEFAULT_SEED;
    let mut repeat = 1;
    let mut out = None;
    let mut smoke = false;
    let mut window: Vec<String> = Vec::new();
    for (flag, value) in flags {
        let bad = || format!("bad value {value} for {flag}");
        match *flag {
            "--seed" => seed = crate::parse_u64(value).ok_or_else(bad)?,
            "--repeat" => {
                repeat = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(bad)?
            }
            "--out" => out = Some(*value),
            "--smoke" => {
                smoke = true;
                window = vec![(*flag).to_owned()];
            }
            "--seconds" => window = vec![(*flag).to_owned(), (*value).to_owned()],
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if window.is_empty() {
        window = vec!["--seconds".to_owned(), DEFAULT_SECONDS.to_string()];
    }
    let mut results = SuiteFile {
        seed,
        window: window.join(" "),
        pinned: true,
        table: Table::new(),
    };
    for workload in Workload::ALL {
        for trace in [0, 1] {
            for _ in 0..repeat {
                let (pinned, result) = child(workload, trace, seed, &window)?;
                results.pinned &= pinned;
                for (name, unit, value) in metrics_of(&result)? {
                    let key = (workload.name().to_owned(), trace, name);
                    let row = results.table.entry(key).or_insert((unit, Vec::new()));
                    row.1.push(value);
                }
            }
        }
    }
    print_table(&results.table);
    if !results.pinned {
        println!("\nnot every run could be pinned to one CPU: host-clock numbers are unresolved");
    }
    if let Some(path) = out {
        write_file(path, &results)?;
    }
    if smoke {
        check_names(&results.table)?;
        println!("\nsmoke: workload and metric names match {DECLARATION}");
    }
    Ok(())
}

/// `same` (equal), `within` (not worse by more than the bound),
/// `worse`, or `unresolved` (the repeats of either side spread wider
/// than the bound, so the medians cannot settle it). A metric with no
/// bound — the per-layer ones — is `same` or `moved`.
fn verdict(a: &[f64], b: &[f64], declared: Option<&Declared>) -> &'static str {
    let ((ma, sa), (mb, sb)) = (median_and_spread(a), median_and_spread(b));
    if ma == mb {
        return "same";
    }
    let Some((d, bound)) = declared.and_then(|d| Some((d, d.bound?))) else {
        return "moved";
    };
    if sa.is_some_and(|s| s > bound) || sb.is_some_and(|s| s > bound) {
        return "unresolved";
    }
    let worse_by = if d.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        "worse"
    } else {
        "within"
    }
}

/// Sets two suite files of one seed and window side by side. Two runs
/// of the same code must agree: every simulated-clock metric and exact
/// count `same`, every host-clock metric no worse than its bound. So it
/// fails on any `worse`, and on any simulated-clock number that moved
/// at all — which between a parent and a change is the finding.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err(crate::USAGE.to_owned());
    };
    let (a, b) = (read_file(a_path)?, read_file(b_path)?);
    if (a.seed, &a.window) != (b.seed, &b.window) {
        return Err(format!(
            "not comparable: {a_path} is seed {} window `{}`, {b_path} is seed {} window `{}`",
            a.seed, a.window, b.seed, b.window
        ));
    }
    let decl = declaration()?;
    let declared: BTreeMap<&str, &Declared> = decl
        .end_to_end
        .iter()
        .chain(&decl.per_layer)
        .map(|(n, d)| (n.as_str(), d))
        .collect();
    let mut failures = Vec::new();
    println!(
        "{:<12} {:<40} {:>16} {:>16} {:>7}  verdict",
        "workload", "metric", a_path, b_path, "bound"
    );
    for (key, (unit, va)) in &a.table {
        let (workload, _, name) = key;
        let Some((_, vb)) = b.table.get(key) else {
            failures.push(format!("{workload} {name}: missing from {b_path}"));
            continue;
        };
        let d = declared.get(name.as_str()).copied();
        let host_clock = HOST_CLOCK.contains(&name.as_str());
        let v = if host_clock && !(a.pinned && b.pinned) {
            "unresolved"
        } else {
            verdict(va, vb, d)
        };
        let bound = d
            .and_then(|d| d.bound)
            .map_or("-".to_owned(), |b| format!("{:.0} %", b * 100.0));
        println!(
            "{workload:<12} {name:<40} {:>16.4} {:>16.4} {bound:>7}  {v}  [{unit}]",
            median_and_spread(va).0,
            median_and_spread(vb).0
        );
        if v == "worse" || (!host_clock && v != "same") {
            failures.push(format!("{workload} {name}: {v}"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("compare failed:\n  {}", failures.join("\n  ")))
    }
}
