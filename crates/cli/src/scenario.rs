//! The declarative scenario-file format (`scenarios/*.psi`) and its
//! hand-rolled parser.
//!
//! A scenario file is a sequence of INI-style sections holding `key = value`
//! pairs; `#` starts a comment. The full grammar is documented in
//! `scenarios/README.md`; in short:
//!
//! ```text
//! [scenario]
//! name = churn-sweepline-2d
//! seed = 42
//!
//! [data]
//! distribution = sweepline      # any workloads::Distribution name
//! dims = 2                      # 2 or 3
//! coords = i64                  # i64 or f64
//! n = 2400
//! max-coord = 1000000           # optional; defaults to the paper's domain
//! source = file:points.csv      # optional: load points from a file instead
//!                               # of generating them (CSV `x,y[,z]` rows or
//!                               # raw little-endian i64 words, by extension;
//!                               # relative to the scenario file). With a
//!                               # source, distribution / n / max-coord are
//!                               # optional: n truncates, max-coord defaults
//!                               # to the data's own bounding box.
//!
//! [indexes]
//! families = all                # or a comma list of registry names;
//!                               # `name@16` pins a per-family leaf size φ
//! leaf-size = 32                # optional leaf-wrap override; a comma
//!                               # list (`16, 32, 64`) sweeps every family
//!                               # over each φ as separate instances
//!
//! [queries]
//! k = 10                        # a comma list (`5, 10, 20`) sweeps k
//! knn-ind = 30
//! knn-ood = 30
//! ranges = 15
//! range-target = 64
//!
//! [schedule]
//! step = build 50%              # must come first; builds the index
//! step = probe                  # run the query mix, record checksums
//! step = insert 25%             # batch-insert the next unseen points
//! step = delete 25%             # batch-delete the oldest live points
//! step = probe
//!
//! [serve]                       # optional: concurrent serving phase
//! clients = 4                   # closed-loop reader threads
//! ops = 500                     # queries per client
//! shards = 2                    # spatial shards (stripes along dim 0)
//! write-batch = 64              # points per published update batch
//! write-every-ms = 2            # writer pacing (0 = as fast as possible)
//! coalesce = 32                 # max queries folded into one flush
//! transport = inproc            # inproc | evented (TCP loopback)
//! epoch-history = 8             # retained epochs for "as of epoch N" queries
//! epoch-history-bytes = 1048576 # optional byte budget for that history
//! data-dir = /var/psi/demo      # optional: WAL + checkpoint durability
//! fsync = every-batch           # every-batch | every-N | os (needs data-dir)
//! ```
//!
//! Amounts are either absolute point counts (`500`) or percentages of `n`
//! (`25%`). Unknown sections or keys — and duplicate scalar keys (only
//! `step` repeats) — are hard errors: a scenario harness that silently
//! ignores a typo would quietly test nothing.

use psi::registry;
use psi_workloads::{Distribution, DEFAULT_MAX_COORD_2D, DEFAULT_MAX_COORD_3D};

/// Coordinate type a scenario runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordKind {
    /// The paper's 64-bit integer domain (every index family).
    I64,
    /// Float coordinates (the SFC-free families only).
    F64,
}

impl CoordKind {
    /// The name used in scenario files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CoordKind::I64 => "i64",
            CoordKind::F64 => "f64",
        }
    }
}

/// A point count, absolute or relative to the scenario's `n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Amount {
    /// Fraction of `n` (parsed from a `%` suffix).
    Fraction(f64),
    /// Absolute number of points.
    Count(usize),
}

impl Amount {
    /// Resolve against the dataset size; at least 1 point.
    pub fn resolve(&self, n: usize) -> usize {
        match *self {
            Amount::Count(c) => c,
            Amount::Fraction(f) => (((n as f64) * f).round() as usize).max(1),
        }
    }

    fn parse(s: &str) -> Result<Amount, String> {
        let s = s.trim();
        if let Some(pct) = s.strip_suffix('%') {
            let v: f64 = pct
                .trim()
                .parse()
                .map_err(|_| format!("bad percentage {s:?}"))?;
            if !(0.0..=100.0).contains(&v) {
                return Err(format!("percentage {s:?} out of [0, 100]"));
            }
            Ok(Amount::Fraction(v / 100.0))
        } else {
            let v: usize = s.parse().map_err(|_| format!("bad point count {s:?}"))?;
            Ok(Amount::Count(v))
        }
    }
}

/// One step of a scenario's update/query schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Initial build over the first `Amount` points of the dataset. Must be
    /// the first step and appear exactly once.
    Build(Amount),
    /// Batch-insert the next `Amount` not-yet-inserted points.
    Insert(Amount),
    /// Batch-delete the `Amount` oldest still-live points.
    Delete(Amount),
    /// Run the query mix and record per-category checksums.
    Probe,
}

impl Step {
    fn parse(s: &str) -> Result<Step, String> {
        let mut parts = s.split_whitespace();
        let verb = parts.next().ok_or_else(|| "empty step".to_string())?;
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(format!("trailing tokens in step {s:?}"));
        }
        let need = |a: Option<&str>| {
            a.map(Amount::parse)
                .transpose()?
                .ok_or_else(|| format!("step {verb:?} needs an amount"))
        };
        match verb {
            "build" => Ok(Step::Build(need(arg)?)),
            "insert" => Ok(Step::Insert(need(arg)?)),
            "delete" => Ok(Step::Delete(need(arg)?)),
            "probe" => {
                if arg.is_some() {
                    return Err("step \"probe\" takes no argument".to_string());
                }
                Ok(Step::Probe)
            }
            other => Err(format!(
                "unknown step {other:?} (expected build/insert/delete/probe)"
            )),
        }
    }
}

/// Size of the query mix a `probe` step runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Neighbour counts to sweep: each kNN query point is asked once per
    /// `k` in this list, and all answers fold into the probe checksum. A
    /// single entry reproduces the pre-sweep behaviour bit-for-bit.
    pub ks: Vec<usize>,
    /// Number of in-distribution kNN query points.
    pub knn_ind: usize,
    /// Number of out-of-distribution kNN query points.
    pub knn_ood: usize,
    /// Number of range rectangles (used for both count and list).
    pub ranges: usize,
    /// Expected points per range rectangle.
    pub range_target: usize,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            ks: vec![10],
            knn_ind: 32,
            knn_ood: 32,
            ranges: 16,
            range_target: 50,
        }
    }
}

/// One index instance a scenario runs: a registry family plus an optional
/// leaf-size override `φ`. Sweeps (`leaf-size = 16, 32` or `fam@16`) expand
/// into one instance per (family, φ) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilySpec {
    /// Canonical registry name.
    pub family: &'static str,
    /// Leaf wrap threshold for this instance; `None` keeps the paper
    /// default.
    pub leaf: Option<usize>,
    /// Display label used in reports and golden files: the bare family name
    /// for a single-φ run (pre-sweep compatible), `family@φ` in sweeps.
    pub label: String,
}

/// The concurrent serving phase of a scenario (`[serve]` section): a
/// closed-loop client/writer mix replayed by `psi-scenario run` through the
/// `psi-server` subsystem after the schedule completes. Timing-only — never
/// part of the golden text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSpec {
    /// Closed-loop reader client threads.
    pub clients: usize,
    /// Queries each client issues.
    pub ops: usize,
    /// Spatial shards (stripes along dimension 0).
    pub shards: usize,
    /// Points per published update batch (0 disables the writer).
    pub write_batch: usize,
    /// Milliseconds between writer publishes (0 = back-to-back).
    pub write_every_ms: u64,
    /// Maximum queries the coalescer folds into one batched flush.
    pub coalesce: usize,
    /// Published epochs retained for "as of epoch N" time-travel queries;
    /// every family keeps them as path-copied snapshots.
    pub epoch_history: usize,
    /// Byte budget for the epoch history (`0` bounds by count only); see
    /// `ServeConfig::epoch_history_bytes`.
    pub epoch_history_bytes: usize,
    /// Family serving the phase; `None` uses the scenario's first instance.
    pub family: Option<&'static str>,
    /// How clients reach the server: in-process handles (the default) or a
    /// ψ-net TCP loopback socket.
    pub transport: ServeTransport,
    /// Durability directory: applied batches are WAL-logged and
    /// checkpointed there, and a rerun recovers the previous run's state.
    /// `None` (the default) serves memory-only.
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL fsync policy; only meaningful with `data_dir`.
    pub fsync: psi_server::FsyncPolicy,
    /// Embed a metrics block (psi-obs registry read-out) in the JSON
    /// report (`stats = on`, the default; `off` omits it).
    pub stats: bool,
}

/// Client transport for the serving phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeTransport {
    /// In-process coalescing handles (no sockets).
    Inproc,
    /// TCP loopback through ψ-net's epoll event loop.
    Evented,
}

impl ServeTransport {
    fn parse(s: &str) -> Option<ServeTransport> {
        match s {
            "inproc" => Some(ServeTransport::Inproc),
            "evented" => Some(ServeTransport::Evented),
            _ => None,
        }
    }

    /// The scenario-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            ServeTransport::Inproc => "inproc",
            ServeTransport::Evented => "evented",
        }
    }
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            clients: 4,
            ops: 500,
            shards: 2,
            write_batch: 64,
            write_every_ms: 2,
            coalesce: 32,
            epoch_history: psi_server::DEFAULT_EPOCH_HISTORY,
            epoch_history_bytes: 0,
            family: None,
            transport: ServeTransport::Inproc,
            data_dir: None,
            fsync: psi_server::FsyncPolicy::default(),
            stats: true,
        }
    }
}

/// A fully parsed and validated scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (reports and golden files echo it).
    pub name: String,
    /// RNG seed for data and query generation.
    pub seed: u64,
    /// Point distribution.
    pub distribution: Distribution,
    /// Dimensionality (2 or 3 — the SFC families' limit).
    pub dims: usize,
    /// Coordinate type.
    pub coords: CoordKind,
    /// Dataset size. With a file [`Scenario::source`], `0` means "every
    /// point in the file" and a positive value truncates to the first `n`.
    pub n: usize,
    /// Coordinate domain upper bound. With a file [`Scenario::source`], `0`
    /// means "derive from the data's own bounding box".
    pub max_coord: i64,
    /// Point file to load instead of generating from `distribution`
    /// (`source = file:PATH` in `[data]`). `.csv` files hold one
    /// comma-separated `x,y[,z]` row per point (`#` comments allowed); any
    /// other extension is raw little-endian i64 words, row-major.
    /// [`parse_file`] resolves relative paths against the scenario file.
    pub source: Option<String>,
    /// The index instances to run (family × leaf-size sweep, expanded).
    pub families: Vec<FamilySpec>,
    /// Query-mix sizes.
    pub queries: QuerySpec,
    /// The update/probe schedule; starts with `Step::Build`.
    pub schedule: Vec<Step>,
    /// Optional concurrent serving phase (`[serve]` section).
    pub serve: Option<ServeSpec>,
}

/// Parse failure, with the 1-based line it occurred on (0 for file-level
/// validation errors).
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based source line, or 0 for whole-file validation errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a comma-separated list of distinct unsigned integers (`k` and
/// `leaf-size` sweep values).
fn parse_usize_list(value: &str, what: &str) -> Result<Vec<usize>, String> {
    let mut out: Vec<usize> = Vec::new();
    for part in value.split(',') {
        let v: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("{what} expects integers, got {:?}", part.trim()))?;
        if out.contains(&v) {
            return Err(format!("duplicate {what} value {v}"));
        }
        out.push(v);
    }
    Ok(out)
}

/// Parse a scenario from its textual form.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut name: Option<String> = None;
    let mut seed: u64 = 42;
    let mut distribution: Option<Distribution> = None;
    let mut dims: usize = 2;
    let mut coords = CoordKind::I64;
    let mut n: Option<usize> = None;
    let mut max_coord: Option<i64> = None;
    let mut source: Option<String> = None;
    let mut fsync_line: Option<usize> = None;
    let mut families_raw: Option<(usize, String)> = None;
    let mut leaf_sizes: Option<(usize, Vec<usize>)> = None;
    let mut queries = QuerySpec::default();
    let mut schedule: Vec<Step> = Vec::new();
    let mut serve: Option<ServeSpec> = None;
    let mut serve_family_raw: Option<(usize, String)> = None;

    let mut section = String::new();
    let mut seen: std::collections::HashSet<(String, String)> = std::collections::HashSet::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix('[') {
            let sect = inner
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, format!("malformed section header {line:?}")))?
                .trim();
            match sect {
                "scenario" | "data" | "indexes" | "queries" | "schedule" => {
                    section = sect.to_string()
                }
                "serve" => {
                    serve.get_or_insert_with(ServeSpec::default);
                    section = sect.to_string()
                }
                other => return Err(err(lineno, format!("unknown section [{other}]"))),
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        if value.is_empty() {
            return Err(err(lineno, format!("empty value for {key:?}")));
        }
        // Scalar keys may be assigned once; only `step` accumulates. A
        // duplicate would silently last-win — the same class of quiet
        // misconfiguration the unknown-key errors exist to prevent.
        if key != "step" && !seen.insert((section.clone(), key.to_string())) {
            return Err(err(lineno, format!("duplicate key {key:?} in [{section}]")));
        }
        let parse_usize = |v: &str, what: &str| {
            v.parse::<usize>()
                .map_err(|_| err(lineno, format!("{what} expects an integer, got {v:?}")))
        };
        match (section.as_str(), key) {
            ("scenario", "name") => name = Some(value.to_string()),
            ("scenario", "seed") => {
                seed = value
                    .parse()
                    .map_err(|_| err(lineno, format!("seed expects an integer, got {value:?}")))?
            }
            ("data", "distribution") => {
                distribution = Some(
                    Distribution::from_name(value)
                        .ok_or_else(|| err(lineno, format!("unknown distribution {value:?}")))?,
                )
            }
            ("data", "dims") => dims = parse_usize(value, "dims")?,
            ("data", "coords") => {
                coords = match value {
                    "i64" => CoordKind::I64,
                    "f64" => CoordKind::F64,
                    other => {
                        return Err(err(
                            lineno,
                            format!("coords must be i64 or f64, got {other:?}"),
                        ))
                    }
                }
            }
            ("data", "n") => n = Some(parse_usize(value, "n")?),
            ("data", "max-coord") => {
                max_coord = Some(value.parse().map_err(|_| {
                    err(
                        lineno,
                        format!("max-coord expects an integer, got {value:?}"),
                    )
                })?)
            }
            ("data", "source") => {
                let path = value.strip_prefix("file:").ok_or_else(|| {
                    err(lineno, format!("source expects `file:PATH`, got {value:?}"))
                })?;
                if path.trim().is_empty() {
                    return Err(err(lineno, "source file path is empty"));
                }
                source = Some(path.trim().to_string());
            }
            ("indexes", "families") => families_raw = Some((lineno, value.to_string())),
            ("indexes", "leaf-size") => {
                leaf_sizes = Some((
                    lineno,
                    parse_usize_list(value, "leaf-size").map_err(|m| err(lineno, m))?,
                ))
            }
            ("queries", "k") => {
                queries.ks = parse_usize_list(value, "k").map_err(|m| err(lineno, m))?
            }
            ("queries", "knn-ind") => queries.knn_ind = parse_usize(value, "knn-ind")?,
            ("queries", "knn-ood") => queries.knn_ood = parse_usize(value, "knn-ood")?,
            ("queries", "ranges") => queries.ranges = parse_usize(value, "ranges")?,
            ("queries", "range-target") => {
                queries.range_target = parse_usize(value, "range-target")?
            }
            ("schedule", "step") => schedule.push(Step::parse(value).map_err(|m| err(lineno, m))?),
            ("serve", key) => {
                let sv = serve.as_mut().expect("serve section sets the default");
                match key {
                    "clients" => sv.clients = parse_usize(value, "clients")?,
                    "ops" => sv.ops = parse_usize(value, "ops")?,
                    "shards" => sv.shards = parse_usize(value, "shards")?,
                    "write-batch" => sv.write_batch = parse_usize(value, "write-batch")?,
                    "write-every-ms" => {
                        sv.write_every_ms = value.parse().map_err(|_| {
                            err(
                                lineno,
                                format!("write-every-ms expects an integer, got {value:?}"),
                            )
                        })?
                    }
                    "coalesce" => sv.coalesce = parse_usize(value, "coalesce")?,
                    "epoch-history" => sv.epoch_history = parse_usize(value, "epoch-history")?,
                    "epoch-history-bytes" => {
                        sv.epoch_history_bytes = parse_usize(value, "epoch-history-bytes")?
                    }
                    "data-dir" => sv.data_dir = Some(std::path::PathBuf::from(value)),
                    "fsync" => {
                        sv.fsync = psi_server::FsyncPolicy::parse(value).ok_or_else(|| {
                            err(
                                lineno,
                                format!("fsync expects every-batch, every-N or os, got {value:?}"),
                            )
                        })?;
                        fsync_line = Some(lineno);
                    }
                    "transport" => {
                        sv.transport = ServeTransport::parse(value).ok_or_else(|| {
                            err(
                                lineno,
                                format!("transport expects inproc | evented, got {value:?}"),
                            )
                        })?
                    }
                    "family" => serve_family_raw = Some((lineno, value.to_string())),
                    "stats" => {
                        sv.stats = match value {
                            "on" => true,
                            "off" => false,
                            other => {
                                return Err(err(
                                    lineno,
                                    format!("stats expects on or off, got {other:?}"),
                                ))
                            }
                        }
                    }
                    other => return Err(err(lineno, format!("unknown key {other:?} in [serve]"))),
                }
            }
            ("", _) => return Err(err(lineno, "key/value pair before any [section]")),
            (sect, key) => return Err(err(lineno, format!("unknown key {key:?} in [{sect}]"))),
        }
    }

    // Whole-file validation. A file source supplies the data itself, so
    // distribution/n/max-coord turn optional: 0 is the "take it from the
    // file" sentinel for the numeric pair (see the [`Scenario`] field docs).
    let name = name.ok_or_else(|| err(0, "[scenario] name is required"))?;
    let distribution = match (distribution, &source) {
        (Some(d), _) => d,
        (None, Some(_)) => Distribution::Uniform,
        (None, None) => return Err(err(0, "[data] distribution is required")),
    };
    let n = match (n, &source) {
        (Some(n), _) => n,
        (None, Some(_)) => 0,
        (None, None) => return Err(err(0, "[data] n is required")),
    };
    if n == 0 && source.is_none() {
        return Err(err(0, "[data] n must be positive"));
    }
    if !(dims == 2 || dims == 3) {
        return Err(err(0, format!("dims must be 2 or 3, got {dims}")));
    }
    let max_coord = match (max_coord, &source) {
        (Some(m), _) => m,
        (None, Some(_)) => 0,
        (None, None) => match dims {
            3 => DEFAULT_MAX_COORD_3D,
            _ => DEFAULT_MAX_COORD_2D,
        },
    };
    if max_coord <= 0 && !(max_coord == 0 && source.is_some()) {
        return Err(err(0, "max-coord must be positive"));
    }

    let available: &[&'static str] = match coords {
        CoordKind::I64 => registry::names(),
        CoordKind::F64 => registry::float_names(),
    };
    // Each listed family entry is a name with an optional `@φ` leaf pin;
    // entries without a pin expand over the global `leaf-size` sweep list.
    let mut listed: Vec<(&'static str, Option<usize>)> = Vec::new();
    match families_raw {
        None => listed.extend(available.iter().map(|&f| (f, None))),
        Some((lineno, raw)) => {
            for part in raw.split(',') {
                let part = part.trim();
                let (name_part, leaf) = match part.split_once('@') {
                    Some((n, l)) => {
                        let leaf: usize = l.trim().parse().map_err(|_| {
                            err(lineno, format!("bad leaf size in family entry {part:?}"))
                        })?;
                        (n.trim(), Some(leaf))
                    }
                    None => (part, None),
                };
                if name_part == "all" {
                    if leaf.is_some() {
                        return Err(err(lineno, "`all` cannot take an @leaf pin"));
                    }
                    listed.extend(available.iter().map(|&f| (f, None)));
                    continue;
                }
                let canon = registry::resolve_name(name_part)
                    .ok_or_else(|| err(lineno, format!("unknown index family {name_part:?}")))?;
                if coords == CoordKind::F64 && !registry::float_names().contains(&canon) {
                    return Err(err(
                        lineno,
                        format!("family {canon:?} does not support f64 coordinates"),
                    ));
                }
                listed.push((canon, leaf));
            }
        }
    }
    // Expand over the global leaf-size sweep. A single global value keeps
    // the bare family name as the label, so pre-sweep scenarios (and their
    // golden files) are untouched; multi-value sweeps and explicit `@φ`
    // pins label instances as `family@φ`.
    let global_leaves: Vec<Option<usize>> = match &leaf_sizes {
        None => vec![None],
        Some((_, list)) => list.iter().map(|&l| Some(l)).collect(),
    };
    let sweeping = global_leaves.len() > 1;
    let mut families: Vec<FamilySpec> = Vec::new();
    for (family, pinned) in listed {
        let leaves: Vec<(Option<usize>, bool)> = match pinned {
            Some(l) => vec![(Some(l), true)],
            None => global_leaves.iter().map(|&l| (l, sweeping)).collect(),
        };
        for (leaf, labelled) in leaves {
            let label = match (leaf, labelled) {
                (Some(l), true) => format!("{family}@{l}"),
                _ => family.to_string(),
            };
            let spec = FamilySpec {
                family,
                leaf,
                label,
            };
            if !families.contains(&spec) {
                families.push(spec);
            }
        }
    }
    if families.is_empty() {
        return Err(err(0, "[indexes] families resolved to an empty list"));
    }
    {
        let mut labels: Vec<&str> = families.iter().map(|f| f.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != families.len() {
            return Err(err(
                0,
                "family instances must have distinct labels (mixing `fam@φ` pins \
                 with a sweep that produces the same φ, or repeating a family \
                 with different spellings, collides)",
            ));
        }
    }
    if queries.ks.is_empty() {
        return Err(err(0, "[queries] k resolved to an empty list"));
    }

    // Serve-phase validation.
    if let Some(sv) = &mut serve {
        if sv.clients == 0 || sv.ops == 0 || sv.shards == 0 || sv.coalesce == 0 {
            return Err(err(
                0,
                "[serve] clients, ops, shards and coalesce must be positive",
            ));
        }
        if let Some(lineno) = fsync_line {
            if sv.data_dir.is_none() {
                return Err(err(lineno, "[serve] fsync requires data-dir"));
            }
        }
        if let Some((lineno, raw)) = serve_family_raw {
            let canon = registry::resolve_name(&raw)
                .ok_or_else(|| err(lineno, format!("unknown serve family {raw:?}")))?;
            if !families.iter().any(|f| f.family == canon) {
                return Err(err(
                    lineno,
                    format!("serve family {canon:?} is not in [indexes] families"),
                ));
            }
            sv.family = Some(canon);
        }
    } else if serve_family_raw.is_some() {
        unreachable!("serve keys only parse inside [serve]");
    }

    if schedule.is_empty() {
        schedule = vec![Step::Build(Amount::Fraction(1.0)), Step::Probe];
    }
    match schedule.first() {
        Some(Step::Build(_)) => {}
        _ => return Err(err(0, "the first schedule step must be `build`")),
    }
    if schedule[1..].iter().any(|s| matches!(s, Step::Build(_))) {
        return Err(err(0, "`build` may appear only as the first step"));
    }

    Ok(Scenario {
        name,
        seed,
        distribution,
        dims,
        coords,
        n,
        max_coord,
        source,
        families,
        queries,
        schedule,
        serve,
    })
}

/// Read and parse a scenario file. A relative `source = file:` path is
/// resolved against the scenario file's own directory, so scenarios can
/// ship next to their datasets.
pub fn parse_file(path: &std::path::Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(src) = &sc.source {
        let p = std::path::Path::new(src);
        if p.is_relative() {
            if let Some(dir) = path.parent() {
                sc.source = Some(dir.join(p).to_string_lossy().into_owned());
            }
        }
    }
    Ok(sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
name = demo
[data]
distribution = uniform
n = 100
";

    fn family_names(sc: &Scenario) -> Vec<&'static str> {
        sc.families.iter().map(|f| f.family).collect()
    }

    #[test]
    fn minimal_scenario_gets_defaults() {
        let sc = parse(MINIMAL).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.seed, 42);
        assert_eq!(sc.dims, 2);
        assert_eq!(sc.coords, CoordKind::I64);
        assert_eq!(sc.max_coord, DEFAULT_MAX_COORD_2D);
        assert_eq!(family_names(&sc), registry::names());
        assert!(sc.families.iter().all(|f| f.leaf.is_none()));
        // Single-φ instances keep the bare family name as their label, so
        // pre-sweep golden files stay valid.
        assert!(sc
            .families
            .iter()
            .all(|f| f.label == f.family && !f.label.contains('@')));
        assert_eq!(sc.queries.ks, vec![10]);
        assert_eq!(
            sc.schedule,
            vec![Step::Build(Amount::Fraction(1.0)), Step::Probe]
        );
        assert_eq!(sc.serve, None);
    }

    #[test]
    fn full_scenario_round_trips() {
        let text = "\
# A comment
[scenario]
name = churn            # trailing comment
seed = 7
[data]
distribution = cosmo-like
dims = 3
coords = i64
n = 500
max-coord = 4096
[indexes]
families = p-orth, spac_h, ZD
leaf-size = 16
[queries]
k = 5
knn-ind = 10
knn-ood = 0
ranges = 4
range-target = 20
[schedule]
step = build 40%
step = probe
step = insert 100
step = delete 25%
step = probe
";
        let sc = parse(text).unwrap();
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.distribution, Distribution::CosmoLike);
        assert_eq!(sc.dims, 3);
        assert_eq!(sc.max_coord, 4096);
        assert_eq!(family_names(&sc), vec!["p-orth", "spac-h", "zd"]);
        assert!(sc.families.iter().all(|f| f.leaf == Some(16)));
        assert!(sc.families.iter().all(|f| f.label == f.family));
        assert_eq!(sc.queries.ks, vec![5]);
        assert_eq!(sc.schedule.len(), 5);
        assert_eq!(sc.schedule[2], Step::Insert(Amount::Count(100)));
        assert_eq!(sc.schedule[3], Step::Delete(Amount::Fraction(0.25)));
    }

    #[test]
    fn sweep_knobs_round_trip() {
        // Per-family φ pins, a global φ sweep, and a k sweep, all at once.
        let text = "\
[scenario]
name = sweep
[data]
distribution = uniform
n = 400
[indexes]
families = p-orth@8, pkd, zd
leaf-size = 16, 32
[queries]
k = 4, 8, 16
";
        let sc = parse(text).unwrap();
        assert_eq!(sc.queries.ks, vec![4, 8, 16]);
        let got: Vec<(String, Option<usize>)> = sc
            .families
            .iter()
            .map(|f| (f.label.clone(), f.leaf))
            .collect();
        assert_eq!(
            got,
            vec![
                ("p-orth@8".to_string(), Some(8)),
                ("pkd@16".to_string(), Some(16)),
                ("pkd@32".to_string(), Some(32)),
                ("zd@16".to_string(), Some(16)),
                ("zd@32".to_string(), Some(32)),
            ]
        );
        // Sweep values must be well-formed.
        assert!(parse(&format!("{MINIMAL}[queries]\nk = 4, 4\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[queries]\nk = 4, nope\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[indexes]\nfamilies = pkd@x\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[indexes]\nfamilies = all@16\n")).is_err());
        // A single global φ keeps bare labels (golden compatibility).
        let single = parse(&format!("{MINIMAL}[indexes]\nleaf-size = 32\n")).unwrap();
        assert!(single.families.iter().all(|f| f.leaf == Some(32)));
        assert!(single.families.iter().all(|f| !f.label.contains('@')));
    }

    #[test]
    fn serve_section_round_trips() {
        let text = "\
[scenario]
name = serve-demo
[data]
distribution = uniform
n = 500
[indexes]
families = spac-h, pkd
[serve]
clients = 3
ops = 250
shards = 4
write-batch = 32
write-every-ms = 5
coalesce = 16
family = pkd
transport = evented
epoch-history = 12
";
        let sc = parse(text).unwrap();
        let sv = sc.serve.expect("serve section parsed");
        assert_eq!(sv.clients, 3);
        assert_eq!(sv.ops, 250);
        assert_eq!(sv.shards, 4);
        assert_eq!(sv.write_batch, 32);
        assert_eq!(sv.write_every_ms, 5);
        assert_eq!(sv.coalesce, 16);
        assert_eq!(sv.epoch_history, 12);
        assert_eq!(sv.family, Some("pkd"));
        assert_eq!(sv.transport, ServeTransport::Evented);
        assert_eq!(sv.transport.name(), "evented");
        // Bare [serve] gets the defaults; absent section stays None.
        let bare = parse(&format!("{MINIMAL}[serve]\n")).unwrap();
        assert_eq!(bare.serve, Some(ServeSpec::default()));
        assert_eq!(parse(MINIMAL).unwrap().serve, None);
        // Unknown keys, zero knobs, bogus transports and unlisted serve
        // families are errors.
        assert!(parse(&format!("{MINIMAL}[serve]\nbogus = 1\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[serve]\nclients = 0\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[serve]\ntransport = osmotic\n")).is_err());
        // `threaded` is not a transport; the error names the ones there are.
        let gone = parse(&format!("{MINIMAL}[serve]\ntransport = threaded\n")).unwrap_err();
        assert!(
            gone.to_string().contains("inproc | evented"),
            "unexpected error: {gone}"
        );
        assert!(parse(&format!(
            "{MINIMAL}[indexes]\nfamilies = pkd\n[serve]\nfamily = zd\n"
        ))
        .is_err());
    }

    #[test]
    fn file_source_relaxes_data_keys() {
        // With a source, distribution/n/max-coord all become optional and
        // fall back to their "take it from the file" sentinels.
        let text = "\
[scenario]
name = file-demo
[data]
source = file:points.csv
[indexes]
families = pkd
";
        let sc = parse(text).unwrap();
        assert_eq!(sc.source.as_deref(), Some("points.csv"));
        assert_eq!(sc.n, 0);
        assert_eq!(sc.max_coord, 0);
        assert_eq!(sc.distribution, Distribution::Uniform);
        // Explicit n / max-coord still win.
        let sc = parse(&text.replace(
            "source = file:points.csv",
            "source = file:points.csv\nn = 100\nmax-coord = 4096",
        ))
        .unwrap();
        assert_eq!(sc.n, 100);
        assert_eq!(sc.max_coord, 4096);
        // Malformed sources are errors, and without a source the old
        // required-key rules still hold.
        assert!(parse(&text.replace("file:points.csv", "points.csv")).is_err());
        assert!(parse(&text.replace("file:points.csv", "file: ")).is_err());
        assert!(parse("[scenario]\nname = x\n[data]\nn = 10\n").is_err());
    }

    #[test]
    fn source_paths_resolve_against_the_scenario_file() {
        let dir = std::env::temp_dir().join(format!("psi-scn-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.psi");
        std::fs::write(
            &path,
            "[scenario]\nname = demo\n[data]\nsource = file:pts.csv\n",
        )
        .unwrap();
        let sc = parse_file(&path).unwrap();
        assert_eq!(
            sc.source.as_deref(),
            Some(dir.join("pts.csv").to_str().unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_durability_keys_round_trip() {
        let base = format!("{MINIMAL}[serve]\n");
        let sc = parse(&format!(
            "{base}data-dir = /tmp/psi-serve\nfsync = every-4\nepoch-history-bytes = 4096\n"
        ))
        .unwrap();
        let sv = sc.serve.unwrap();
        assert_eq!(
            sv.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/psi-serve"))
        );
        assert_eq!(sv.fsync, psi_server::FsyncPolicy::EveryN(4));
        assert_eq!(sv.epoch_history_bytes, 4096);
        // fsync without data-dir, and bogus policies, are parse errors.
        assert!(parse(&format!("{base}fsync = os\n")).is_err());
        assert!(parse(&format!("{base}data-dir = /tmp/x\nfsync = sometimes\n")).is_err());
    }

    #[test]
    fn amounts_resolve() {
        assert_eq!(Amount::Fraction(0.25).resolve(1000), 250);
        assert_eq!(Amount::Fraction(0.0001).resolve(100), 1);
        assert_eq!(Amount::Count(7).resolve(1000), 7);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[data]\nn = 10\ndistribution = nope\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn rejects_unknown_keys_sections_and_schedules() {
        assert!(parse("[bogus]\n").is_err());
        assert!(parse(&format!("{MINIMAL}typo = 3\n")).is_err());
        assert!(parse(&format!("{MINIMAL}[schedule]\nstep = probe\n")).is_err());
        assert!(parse(&format!(
            "{MINIMAL}[schedule]\nstep = build 50%\nstep = build 50%\n"
        ))
        .is_err());
        assert!(parse(&format!("{MINIMAL}[indexes]\nfamilies = warp-drive\n")).is_err());
        // Duplicate scalar keys must not silently last-win.
        let e = parse(&format!("{MINIMAL}n = 999\n")).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        assert!(parse(&format!(
            "{MINIMAL}[indexes]\nfamilies = pkd\nfamilies = zd\n"
        ))
        .is_err());
        // ...but repeated `step` lines are the schedule.
        assert!(parse(&format!(
            "{MINIMAL}[schedule]\nstep = build 50%\nstep = insert 50%\nstep = probe\n"
        ))
        .is_ok());
    }

    #[test]
    fn f64_rejects_integer_only_families() {
        // The SFC families serve f64 through the quantising adapter now;
        // only the R-tree stand-in remains integer-only.
        let text = "\
[scenario]
name = f
[data]
distribution = uniform
n = 10
coords = f64
[indexes]
families = r-tree
";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("f64"));
        let quantised = parse(&text.replace("families = r-tree", "families = spac-h")).unwrap();
        assert_eq!(family_names(&quantised), vec!["spac-h"]);
        // `all` under f64 resolves to the float-capable set.
        let text_all = "\
[scenario]
name = f
[data]
distribution = uniform
n = 10
coords = f64
";
        let sc = parse(text_all).unwrap();
        assert_eq!(family_names(&sc), registry::float_names());
    }
}
