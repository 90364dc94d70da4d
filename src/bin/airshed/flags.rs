//! The flag and command tables: every option of `airshed` declared once.
//!
//! A [`Flag`] entry in [`FLAGS`] is the only place an option's name is
//! written. Everything else hangs off that entry: its aliases, how its
//! value is parsed and validated ([`Kind`]), its default (the text a user
//! would type, run through the same parser), the subcommands that read it,
//! its usage lines, and how a parent process hands it to a child. [`parse`],
//! [`usage`] and [`shard_args`] are loops over the table, so the parser, the
//! help text, a subcommand's scope and what `fabric` forwards to its shards
//! cannot disagree.
//!
//! **To add an option:** a field in [`Options`] and one entry in [`FLAGS`],
//! placed where its usage section wants it (table order is usage order
//! within every section). **To add a subcommand:** a [`Cmd`] variant, an
//! entry in [`COMMANDS`], and its bit in the scope of every flag it reads.

use crate::{ensemble, model, service};
use airshed::core::config::{DatasetChoice, SimConfig, Weather};
use airshed::core::driver::ChemLayout;
use airshed::core::obs::Obs;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;
use Cmd::*;
use Kind::*;

/// Every option's value. `Default` is only the blank [`parse`] starts
/// from: the defaults a user sees are declared on the flags and applied
/// there, so `parse(cmd, &[])` is what a bare command line means.
#[derive(Debug, Clone, Default)]
pub struct Options {
    pub dataset: DatasetChoice,
    pub machine: MachineProfile,
    pub nodes: Vec<usize>,
    pub hours: usize,
    pub start_hour: usize,
    pub emission_scale: f64,
    pub weather: Weather,
    pub cyclic: bool,
    pub taskpar: bool,
    pub optimize: bool,
    pub no_map: bool,
    pub threads: Option<usize>,
    // observability exports
    pub trace_out: Option<String>,
    pub metrics_out: Option<String>,
    // validate: also write the table as JSON
    pub json_out: Option<String>,
    // ensemble knobs
    pub members: usize,
    pub scale_range: (f64, f64),
    pub days: usize,
    pub no_dedup: bool,
    pub tolerance: f64,
    pub queries: Vec<f64>,
    // serve-batch knobs
    pub workers: usize,
    pub clients: usize,
    pub queue_cap: usize,
    pub budget: Option<f64>,
    pub scenarios: Option<String>,
    // fabric / shard knobs
    pub shards: usize,
    pub expect: Option<usize>,
    pub listen: String,
    pub jobs: usize,
    pub kill_shard: Option<usize>,
    pub kill_after_hours: u64,
    pub hb_timeout_ms: u64,
    pub local: bool,
    pub out: Option<String>,
    pub connect: Option<String>,
    pub shard_name: String,
    pub heartbeat_ms: u64,
    pub die_after_hours: Option<u64>,
    // trace-merge knobs
    pub frontend_trace: Option<String>,
    pub shard_traces: Vec<String>,
}

pub fn config(o: &Options, p: usize) -> SimConfig {
    SimConfig {
        machine: o.machine,
        hours: o.hours,
        start_hour: o.start_hour,
        weather: o.weather,
        emission_scale: o.emission_scale,
        ..SimConfig::new(o.dataset, p)
    }
}

pub fn exec(o: &Options) -> ExecSpec {
    o.threads.map_or_else(ExecSpec::default, ExecSpec::rayon)
}

pub fn layout(o: &Options) -> ChemLayout {
    if o.cyclic {
        ChemLayout::Cyclic
    } else {
        ChemLayout::Block
    }
}

/// The subcommands, in usage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Run,
    Sweep,
    Predict,
    Plan,
    Popexp,
    Validate,
    Ensemble,
    ServeBatch,
    Fabric,
    Shard,
    TraceMerge,
    Gridinfo,
}

impl Cmd {
    /// This subcommand as a member of a flag's scope set.
    const fn bit(self) -> u16 {
        1 << self as u16
    }

    pub fn name(self) -> &'static str {
        COMMANDS[self as usize].name
    }
}

/// One simulation per invocation: the commands that read `nodes`.
const MODEL: u16 = Run.bit()
    | Sweep.bit()
    | Predict.bit()
    | Plan.bit()
    | Popexp.bit()
    | Validate.bit()
    | Ensemble.bit();
/// The commands that read the chemistry layout.
const LAYOUT: u16 = Run.bit() | Sweep.bit() | Predict.bit() | ServeBatch.bit() | Fabric.bit();
/// Every command that builds a `SimConfig`.
const SIM: u16 = MODEL | ServeBatch.bit() | Fabric.bit();
/// Every command that runs numerics on host threads.
const HOST: u16 = SIM | Shard.bit();
/// Every command that records spans.
const TRACED: u16 = HOST | Gridinfo.bit();

pub struct Command {
    pub cmd: Cmd,
    pub name: &'static str,
    pub run: fn(&Options, &Obs) -> Result<(), String>,
    /// The usage text after the name; continuation lines verbatim.
    about: &'static str,
}

/// The command table, indexed by `Cmd as usize`: `main` dispatches through
/// it and the usage text lists it, one command per row.
#[rustfmt::skip]
pub static COMMANDS: [Command; 12] = [
    Command { cmd: Run, name: "run", run: model::cmd_run,
        about: "simulate and report phase timings + surface ozone map" },
    Command { cmd: Sweep, name: "sweep", run: model::cmd_sweep,
        about: "replay one run across machines and node counts (Figure 2 style)" },
    Command { cmd: Predict, name: "predict", run: model::cmd_predict,
        about: "calibrate the analytic model and extrapolate (Figure 6/7 style)" },
    Command { cmd: Plan, name: "plan", run: model::cmd_plan,
        about: "show the plan the optimizer would run; with --optimize,
                search per-phase layouts and pipeline splits for the
                cheapest predicted plan and verify it against a replay" },
    Command { cmd: Popexp, name: "popexp", run: model::cmd_popexp,
        about: "integrated Airshed + population exposure (Figure 13 style)" },
    Command { cmd: Validate, name: "validate", run: model::cmd_validate,
        about: "run the performance oracle: predicted-vs-measured tables
                over a node sweep plus per-phase residuals (Figure 5-7 style)" },
    Command { cmd: Ensemble, name: "ensemble", run: ensemble::cmd_ensemble,
        about: "run an emission-scaling (or multi-day) ensemble sweep with
                shared-input dedup, fit the surrogate response surface, and
                answer what-if queries from it (exact fallback when the
                error bound exceeds --tolerance)" },
    Command { cmd: ServeBatch, name: "serve-batch", run: service::cmd_serve_batch,
        about: "run a scenario batch through the concurrent scenario service" },
    Command { cmd: Fabric, name: "fabric", run: service::cmd_fabric,
        about: "serve a batch across shard processes with oracle-routed
                load balancing (spawns shards; or --local for the
                single-process reference run)" },
    Command { cmd: Shard, name: "shard", run: service::cmd_shard,
        about: "run one shard process (normally spawned by fabric)" },
    Command { cmd: TraceMerge, name: "trace-merge", run: service::cmd_trace_merge,
        about: "stitch per-process fabric traces into one Perfetto
                timeline (clock-offset corrected, flow arrows on hops)" },
    Command { cmd: Gridinfo, name: "gridinfo", run: model::cmd_gridinfo,
        about: "multiscale-grid statistics for a dataset" },
];

/// How a flag's value is parsed, validated (once per kind, so every
/// message reads the same and [`parse`] can name the flag) and stored.
pub enum Kind {
    /// Takes no value.
    Switch(fn(&mut Options)),
    /// An integer no smaller than the given minimum: 1 for a positive
    /// count, 0 for an index or a duration that may be zero.
    Int(usize, fn(&mut Options, usize)),
    /// A finite, non-negative real: emission scales, tolerances.
    Scale(fn(&mut Options, f64)),
    /// Free text: a path, an address, a name.
    Text(fn(&mut Options, String)),
    /// Anything else, through the flag's own parser.
    Parsed(fn(&mut Options, &str) -> Result<(), String>),
}

impl Kind {
    fn set(&self, o: &mut Options, value: &str) -> Result<(), String> {
        match *self {
            Switch(set) => set(o),
            Int(min, set) => set(o, int(value, min)?),
            Scale(set) => set(o, scale(value)?),
            Text(set) => set(o, value.to_string()),
            Parsed(set) => return set(o, value),
        }
        Ok(())
    }
}

fn int(v: &str, min: usize) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("wants an integer >= {min}, not '{v}'")),
    }
}

fn scale(v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(format!("wants a finite number >= 0, not '{v}'")),
    }
}

fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(item).collect()
}

/// Store a custom parser's result.
fn set<T>(slot: &mut T, parsed: Result<T, String>) -> Result<(), String> {
    *slot = parsed?;
    Ok(())
}

fn dataset(v: &str) -> Result<DatasetChoice, String> {
    match (v, v.strip_prefix("tiny:")) {
        ("la" | "LA", _) => Ok(DatasetChoice::LosAngeles),
        ("ne" | "NE", _) => Ok(DatasetChoice::NorthEast),
        (_, Some(columns)) => Ok(DatasetChoice::Tiny(int(columns, 0)?)),
        _ => Err(format!("unknown dataset '{v}' (la | ne | tiny:<columns>)")),
    }
}

fn machine(v: &str) -> Result<MachineProfile, String> {
    MachineProfile::by_name(v).ok_or_else(|| format!("unknown machine '{v}' (t3e|t3d|paragon)"))
}

/// A flag the subcommand cannot run without.
fn need<T>(value: &Option<T>, why: &str) -> Result<(), String> {
    value.as_ref().map(drop).ok_or_else(|| why.to_string())
}

fn scale_range(v: &str) -> Result<(f64, f64), String> {
    let (lo, hi) = (v.split_once(':')).ok_or_else(|| format!("wants lo:hi, not '{v}'"))?;
    match (scale(lo)?, scale(hi)?) {
        (lo, hi) if lo < hi => Ok((lo, hi)),
        _ => Err(format!("wants lo < hi, not '{v}'")),
    }
}

/// A usage section: the general `OPTIONS` list, or `<COMMAND> OPTIONS`.
type Section = Option<Cmd>;
const GENERAL: Section = None;

/// A flag's value as command-line text (`None`: leave the flag off).
type Render = fn(&Options) -> Option<String>;
/// A condition on the finished option set.
type Check = fn(&Options) -> Result<(), String>;

/// One option, declared once.
pub struct Flag {
    pub name: &'static str,
    alias: Option<&'static str>,
    kind: Kind,
    /// The value an unset flag has, as a user would type it; usage lines
    /// show it where they say `{default}`.
    default: Option<&'static str>,
    /// The subcommands that read it; any other rejects it.
    scope: u16,
    /// Usage lines per section — the text after the name, continuation
    /// lines verbatim. The wording may differ between sections; no flag
    /// is documented in more than three.
    help: [(Section, &'static str); 3],
    /// How a parent process hands the flag to a child it spawns; every
    /// flag `shard` reads has one.
    forward: Option<Render>,
    /// Checked after parsing, when the chosen subcommand reads the flag:
    /// required flags, cross-flag ranges.
    check: Option<Check>,
}

const fn flag(name: &'static str, kind: Kind, default: Option<&'static str>, scope: u16) -> Flag {
    Flag {
        name,
        alias: None,
        kind,
        default,
        scope,
        help: [(GENERAL, ""); 3],
        forward: None,
        check: None,
    }
}

impl Flag {
    const fn alias(mut self, alias: &'static str) -> Flag {
        self.alias = Some(alias);
        self
    }

    const fn help(mut self, section: Section, text: &'static str) -> Flag {
        let mut free = 0;
        while !self.help[free].1.is_empty() {
            free += 1;
        }
        self.help[free] = (section, text);
        self
    }

    const fn forward(mut self, render: Render) -> Flag {
        self.forward = Some(render);
        self
    }

    const fn check(mut self, check: Check) -> Flag {
        self.check = Some(check);
        self
    }

    pub fn read_by(&self, cmd: Cmd) -> bool {
        self.scope & cmd.bit() != 0
    }

    fn names(&self) -> impl Iterator<Item = &'static str> {
        std::iter::once(self.name).chain(self.alias)
    }
}

/// The flag table, one flag per row: name, kind and setter, default, scope;
/// then its usage lines and what else hangs off it. Table order is usage
/// order within every section (`--workers` sits where its three agree).
#[rustfmt::skip] // a table reads as rows; rustfmt would stand every row on end
pub static FLAGS: &[Flag] = &[
    flag("--dataset", Parsed(|o, v| set(&mut o.dataset, dataset(v))), Some("tiny:120"),
        SIM | Gridinfo.bit())
        .alias("--grid")
        .help(GENERAL, " la | ne | tiny:<columns>     (default {default})"),
    flag("--machine", Parsed(|o, v| set(&mut o.machine, machine(v))), Some("t3e"), SIM)
        .help(GENERAL, " t3e | t3d | paragon          (default {default})"),
    flag("--nodes", Parsed(|o, v| set(&mut o.nodes, list(v, |n| int(n, 1)))), Some("16"), MODEL)
        .help(GENERAL, "   N[,N...]                     (default {default})")
        .help(Some(Validate), " N,N,...  node counts to sweep (default 4,16,64 when a single
                     count is given)"),
    flag("--hours", Int(0, |o, n| o.hours = n), Some("6"), SIM)
        .help(GENERAL, "   N                            (default {default})"),
    flag("--start", Int(0, |o, h| o.start_hour = h), Some("8"), SIM)
        .help(GENERAL, "   hour-of-day 0..23            (default {default})")
        .check(|o| if o.start_hour < 24 { Ok(()) } else { Err("wants an hour, 0..23".into()) }),
    flag("--emis", Scale(|o, x| o.emission_scale = x), Some("1.0"), SIM)
        .help(GENERAL, "    emission scale factor        (default {default})"),
    flag("--stagnation", Switch(|o| o.weather = Weather::Stagnation), None, SIM)
        .help(GENERAL, "  simulate a stagnant high-pressure smog episode"),
    flag("--cyclic", Switch(|o| o.cyclic = true), None, LAYOUT)
        .help(GENERAL, "  use CYCLIC chemistry distribution"),
    flag("--taskpar", Switch(|o| o.taskpar = true), None, Run.bit())
        .help(GENERAL, " use the pipelined task-parallel driver"),
    flag("--optimize", Switch(|o| o.optimize = true), None, Plan.bit() | ServeBatch.bit())
        .help(GENERAL, "    plan: search the layout/pipeline plan space;
                  serve-batch: re-plan every job from the admission
                  model (at execute time, once its family is calibrated)"),
    flag("--no-map", Switch(|o| o.no_map = true), None, Run.bit() | Gridinfo.bit())
        .help(GENERAL, "  skip the ASCII ozone map"),
    flag("--threads", Int(1, |o, n| o.threads = Some(n)), None, HOST)
        .help(GENERAL, " N  host threads, same results at any N (default: all cores)")
        .forward(|o| o.threads.map(|n| n.to_string())),
    flag("--trace-out", Text(|o, v| o.trace_out = Some(v)), None, TRACED)
        .help(GENERAL, " F    write a Chrome trace-event JSON of the run to F
                     (open in Perfetto / chrome://tracing)")
        .forward(|o| o.trace_out.clone()),
    flag("--metrics-out", Text(|o, v| o.metrics_out = Some(v)), None, TRACED)
        .help(GENERAL, " F  write a Prometheus text-format metrics snapshot to F")
        .forward(|o| o.metrics_out.clone()),
    flag("--json", Text(|o, v| o.json_out = Some(v)), None, Validate.bit())
        .help(Some(Validate), " F         also write the predicted-vs-measured tables as JSON"),
    flag("--members", Int(2, |o, n| o.members = n), Some("8"), Ensemble.bit())
        .help(Some(Ensemble), " N      members in the emission sweep        (default {default})"),
    flag("--scale-range", Parsed(|o, v| set(&mut o.scale_range, scale_range(v))), Some("0.5:1.5"),
        Ensemble.bit())
        .help(Some(Ensemble), " lo:hi  emission scales swept, inclusive  (default {default})"),
    flag("--days", Int(1, |o, n| o.days = n), Some("1"), Ensemble.bit())
        .help(Some(Ensemble),
            " D         replicate the sweep over D episode days (default {default};
                     forks one input group per day)"),
    flag("--no-dedup", Switch(|o| o.no_dedup = true), None, Ensemble.bit())
        .help(Some(Ensemble), "       run every member standalone (the baseline the dedup
                     savings compare against)"),
    flag("--tolerance", Scale(|o, x| o.tolerance = x), Some("1e-3"), Ensemble.bit())
        .help(Some(Ensemble),
            " T    surrogate error bound a what-if accepts, ppm (default {default})"),
    flag("--queries", Parsed(|o, v| set(&mut o.queries, list(v, scale))), Some("0.9,1.25,2.0"),
        Ensemble.bit())
        .help(Some(Ensemble), " S,S,.. what-if emission scales to answer     (default {default};
                     out-of-range scales exercise the exact fallback)"),
    flag("--shards", Int(1, |o, n| o.shards = n), Some("2"), Fabric.bit())
        .help(Some(Fabric), " N       shard processes to spawn              (default {default})"),
    flag("--expect", Int(1, |o, n| o.expect = Some(n)), None, Fabric.bit())
        .help(Some(Fabric), " N       shard connections to wait for         (default: --shards)"),
    flag("--listen", Text(|o, v| o.listen = v), Some("127.0.0.1:0"), Fabric.bit())
        .help(Some(Fabric), " A       front-end bind address                (default {default})"),
    flag("--jobs", Int(1, |o, n| o.jobs = n), Some("16"), Fabric.bit())
        .help(Some(Fabric), " N         scenarios in the batch                (default {default})"),
    flag("--connect", Text(|o, v| o.connect = Some(v)), None, Shard.bit())
        .help(Some(Shard), " A      front-end address (required)")
        .forward(|o| o.connect.clone())
        .check(|o| need(&o.connect, "a shard needs its front-end's address")),
    flag("--name", Text(|o, v| o.shard_name = v), Some("shard"), Shard.bit())
        .help(Some(Shard), " S         shard name for metrics labels         (default {default})")
        .forward(|o| Some(o.shard_name.clone())),
    flag("--workers", Int(1, |o, n| o.workers = n), Some("4"),
        ServeBatch.bit() | Fabric.bit() | Shard.bit())
        .help(Some(ServeBatch), " N     worker pool size                    (default {default})")
        .help(Some(Fabric), " N      worker threads per shard              (default {default})")
        .help(Some(Shard), " N      worker threads                        (default {default})")
        .forward(|o| Some(o.workers.to_string())),
    flag("--clients", Int(1, |o, n| o.clients = n), Some("4"), ServeBatch.bit())
        .help(Some(ServeBatch), " M     concurrent submitting clients       (default {default})"),
    flag("--queue-cap", Int(1, |o, n| o.queue_cap = n), Some("64"), ServeBatch.bit())
        .help(Some(ServeBatch), " N   bounded queue capacity              (default {default})"),
    flag("--budget", Scale(|o, seconds| o.budget = Some(seconds)), None, ServeBatch.bit())
        .help(Some(ServeBatch), " S      admission budget, virtual seconds   (default: admit all)")
        .check(|o| if o.budget == Some(0.0) { Err("must be positive".into()) } else { Ok(()) }),
    flag("--scenarios", Text(|o, v| o.scenarios = Some(v)), None, ServeBatch.bit())
        .help(Some(ServeBatch), " F   scenario list file, one run-style option line per
                    scenario ('#' comments and blank lines skipped);
                    without it a 32-scenario demo batch is generated"),
    flag("--kill-shard", Int(0, |o, i| o.kill_shard = Some(i)), None, Fabric.bit())
        .help(Some(Fabric), " I   give shard I --die-after-hours for the failover drill")
        .check(|o| match o.kill_shard {
            Some(i) if i >= o.shards => Err(format!("no shard {i} among {} (from 0)", o.shards)),
            _ => Ok(()),
        }),
    flag("--kill-after-hours", Int(1, |o, n| o.kill_after_hours = n as u64), Some("4"),
        Fabric.bit())
        .help(Some(Fabric), " H  hours before the killed shard exits (default {default})"),
    flag("--hb-timeout-ms", Int(1, |o, n| o.hb_timeout_ms = n as u64), Some("2000"), Fabric.bit())
        .help(Some(Fabric), " T  declare a shard lost after T ms of silence (default {default})"),
    flag("--local", Switch(|o| o.local = true), None, Fabric.bit())
        .help(Some(Fabric), "          run the same batch single-process (reference results)"),
    flag("--heartbeat-ms", Int(1, |o, n| o.heartbeat_ms = n as u64), Some("250"),
        Fabric.bit() | Shard.bit())
        .help(Some(Shard), " T heartbeat period                      (default {default})")
        .forward(|o| Some(o.heartbeat_ms.to_string())),
    flag("--die-after-hours", Int(1, |o, n| o.die_after_hours = Some(n as u64)), None, Shard.bit())
        .help(Some(Shard), " H  hard-exit after H completed hours (crash drill)")
        .forward(|o| o.die_after_hours.map(|h| h.to_string())),
    flag("--frontend", Text(|o, v| o.frontend_trace = Some(v)), None, TraceMerge.bit())
        .help(Some(TraceMerge), " F     the frontend trace written by `fabric --trace-out F`")
        .check(|o| need(&o.frontend_trace, "trace-merge needs the frontend's trace.json")),
    flag("--shard-trace", Text(|o, v| o.shard_traces.push(v)), None, TraceMerge.bit())
        .help(Some(TraceMerge), " F  a shard trace to merge (repeatable); without it the
                     shards named on the frontend's clock-offset track are
                     auto-discovered at F's sibling paths (trace.json ->
                     trace.shard-0.json); a crashed shard's missing trace
                     is skipped with a note"),
    flag("--out", Text(|o, v| o.out = Some(v)), None, Fabric.bit() | TraceMerge.bit())
        .help(Some(Fabric), " F          write one 'index<TAB>fingerprint<TAB>scenario' line per
                     job to F — bit-exact comparable between fabric and --local")
        .help(Some(TraceMerge), " F          merged trace path (default: frontend with `.merged`
                     inserted, trace.json -> trace.merged.json)"),
];

/// Parse the options of one `cmd` command line: a loop over [`FLAGS`].
/// Every error names the flag it is about.
pub fn parse(cmd: Cmd, args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    for flag in FLAGS {
        if let Some(text) = flag.default {
            let parsed = flag.kind.set(&mut o, text);
            parsed.expect("a flag's declared default parses");
        }
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = (FLAGS.iter().find(|f| f.names().any(|name| name == arg)))
            .ok_or_else(|| format!("unknown option '{arg}' (try: airshed help)"))?;
        if !flag.read_by(cmd) {
            let name = cmd.name();
            return Err(format!("{arg} is not an option of `airshed {name}`"));
        }
        let value = match flag.kind {
            Switch(_) => "",
            _ => it.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        let parsed = flag.kind.set(&mut o, value);
        parsed.map_err(|e| format!("{arg}: {e}"))?;
    }
    for flag in FLAGS.iter().filter(|f| f.read_by(cmd)) {
        if let Some(check) = flag.check {
            check(&o).map_err(|e| format!("{}: {e}", flag.name))?;
        }
    }
    Ok(o)
}

/// The command line that hands `o` to a child `airshed shard`: every flag
/// the shard reads, rendered by its own declaration.
pub fn shard_args(o: &Options) -> Vec<String> {
    let mut args = vec![Shard.name().to_string()];
    for flag in FLAGS.iter().filter(|f| f.read_by(Shard)) {
        if let Some(value) = flag.forward.and_then(|render| render(o)) {
            args.extend([flag.name.to_string(), value]);
        }
    }
    args
}

const EXAMPLES: &str = "
EXAMPLES:
    airshed run --dataset tiny:150 --nodes 32 --hours 8
    airshed fabric --shards 2 --jobs 16 --dataset tiny:60 --hours 3
    airshed fabric --shards 2 --jobs 16 --kill-shard 1 --kill-after-hours 4
    airshed fabric --shards 2 --jobs 8 --trace-out fab.json && \\
        airshed trace-merge --frontend fab.json   # -> fab.merged.json
    airshed sweep --dataset la --nodes 4,8,16,32,64,128
    airshed validate --grid la --nodes 4,16,64
    airshed plan --optimize --grid la --nodes 16 --hours 2
    airshed run --dataset tiny:120 --emis 0.5 --hours 6   # policy scenario
    airshed ensemble --dataset la --members 16 --hours 4 --queries 0.9,2.0
    airshed serve-batch --dataset tiny:60 --workers 4 --clients 8 --budget 2e4
";

/// Either of these anywhere on the line wins, before option parsing: the
/// conventional escape hatch (`airshed validate --help`).
pub const HELP: [&str; 2] = ["--help", "-h"];

/// The help text, rendered from [`COMMANDS`] and [`FLAGS`].
pub fn usage() -> String {
    let mut text = String::from(
        "airshed — the Airshed pollution model in an HPF-style environment

USAGE:
    airshed <command> [options]

COMMANDS:
",
    );
    for c in &COMMANDS {
        text += &format!("    {:<12}{}\n", c.name, c.about);
    }
    text += "    help        this text\n";
    let sections = std::iter::once(GENERAL).chain(COMMANDS.iter().map(|c| Some(c.cmd)));
    for section in sections {
        let mut lines = String::new();
        for flag in FLAGS {
            let name = flag.name;
            for (_, help) in
                (flag.help.iter()).filter(|(s, help)| *s == section && !help.is_empty())
            {
                let help = help.replace("{default}", flag.default.unwrap_or_default());
                lines += &format!("    {name}{help}\n");
                if let Some(alias) = flag.alias {
                    lines += &format!("    {alias:<10}alias for {name}\n");
                }
            }
        }
        if !lines.is_empty() {
            let title = section.map_or(String::new(), |c| c.name().to_uppercase() + " ");
            text += &format!("\n{title}OPTIONS:\n{lines}");
        }
    }
    text + EXAMPLES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `name` with a value the flag's parser accepts (its default where it
    /// has one).
    fn line(flag: &Flag, name: &str) -> Vec<String> {
        let sample = flag.default.unwrap_or(match flag.name {
            "--kill-shard" => "0",
            _ => "3",
        });
        match flag.kind {
            Switch(_) => words(name),
            _ => words(&format!("{name} {sample}")),
        }
    }

    /// The shortest valid command line of `cmd`: its required flags.
    fn required(cmd: Cmd) -> Vec<String> {
        words(match cmd {
            Shard => "--connect 127.0.0.1:7",
            TraceMerge => "--frontend fab.json",
            _ => "",
        })
    }

    #[test]
    fn every_flag_parses_is_scoped_and_is_documented() {
        let text = usage();
        for flag in FLAGS {
            let name = flag.name;
            assert!(
                COMMANDS.iter().any(|c| flag.read_by(c.cmd)),
                "{name} is read by no subcommand"
            );
            assert!(!flag.help[0].1.is_empty(), "{name} has no usage line");
            for (section, _) in flag.help {
                assert!(
                    section.is_none_or(|c| flag.read_by(c)),
                    "{name} is documented under a subcommand that rejects it"
                );
            }
            // Under every subcommand that reads it, each of its names
            // parses its sample value to the same options; every other
            // subcommand rejects it by the name the user typed.
            for c in &COMMANDS {
                for alias in flag.names() {
                    assert!(text.contains(&format!("\n    {alias} ")), "{alias}");
                    let mut args = line(flag, alias);
                    args.extend(required(c.cmd));
                    match parse(c.cmd, &args) {
                        Ok(o) => {
                            assert!(flag.read_by(c.cmd), "{} accepts {alias}", c.name);
                            args[0] = name.to_string();
                            let canonical = parse(c.cmd, &args).unwrap();
                            assert_eq!(format!("{o:?}"), format!("{canonical:?}"));
                        }
                        Err(e) => {
                            assert!(!flag.read_by(c.cmd), "{} {args:?}: {e}", c.name);
                            assert!(e.contains(alias), "'{e}' does not name {alias}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_command_dispatches_and_indexes_the_table() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert_eq!(c.cmd as usize, i, "{} is out of `Cmd` order", c.name);
            assert_eq!(c.cmd.name(), c.name);
            assert_eq!(COMMANDS.iter().filter(|d| d.name == c.name).count(), 1);
            assert!(usage().contains(&format!("\n    {:<12}", c.name)));
        }
        // The one in-process dispatch that needs no simulation.
        let o = parse(TraceMerge, &words("--frontend /nowhere/absent.json")).unwrap();
        let err = (COMMANDS[TraceMerge as usize].run)(&o, &Obs::off()).unwrap_err();
        assert!(err.contains("/nowhere/absent.json"), "{err}");
    }

    #[test]
    fn shard_command_lines_round_trip_through_the_table() {
        for flag in FLAGS.iter().filter(|f| f.read_by(Shard)) {
            assert!(flag.forward.is_some(), "{} is not forwarded", flag.name);
        }
        // What fabric passes through and what it sets per shard both come
        // back out of the shard's own parse.
        let passed = "--threads 3 --workers 5 --heartbeat-ms 40";
        let child = Options {
            connect: Some("127.0.0.1:7".into()),
            shard_name: "shard-1".into(),
            die_after_hours: Some(4),
            trace_out: Some("t.shard-1.json".into()),
            ..parse(Fabric, &words(passed)).unwrap()
        };
        let args = shard_args(&child);
        assert_eq!(args[0], "shard");
        let back = parse(Shard, &args[1..]).unwrap();
        assert_eq!(format!("{back:?}"), format!("{child:?}"));
        assert_eq!(exec(&back), ExecSpec::rayon(3));
        let serial = shard_args(&parse(Fabric, &words("--threads 1")).unwrap());
        assert_eq!(serial[1..3], ["--threads", "1"]);
        // Nothing the user did not set is spelled out for the child.
        let bare = shard_args(&parse(Shard, &required(Shard)).unwrap());
        assert_eq!(
            bare.join(" "),
            "shard --connect 127.0.0.1:7 --name shard --workers 4 --heartbeat-ms 250"
        );
    }
}
