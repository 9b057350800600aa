//! Discovery-job benchmark for spider-ind.
//!
//! A *job* is what a user of the library runs: load a TSV database
//! directory with [`ind_storage::tsv::load_database`], then discover its
//! inclusion dependencies on disk through the public runner
//! ([`IndFinder::discover_on_disk_with`] with SPIDER, or
//! [`NaryFinder::discover_on_disk`] for composite INDs). The benchmark runs jobs
//! one after another on one thread (a closed loop with one client), times
//! each, and checks every result against an oracle computed in set-up by an
//! independent in-memory engine.
//!
//! A separate *traced* job makes the same public calls the runner makes, in
//! the same order, and times each call from this crate — no spans are added
//! inside the program. Its per-layer numbers are the `per_layer` metrics of
//! `BENCHMARK.json`.

use ind_core::{
    generate_candidates, profiles_from_export, run_spider, Algorithm, Discovery, IndFinder,
    NaryDiscovery, NaryFinder, PretestConfig, RunMetrics,
};
use ind_storage::{tsv, DataType, Database, QualifiedName};
use ind_valueset::{ExportOptions, ExportedDatabase, ResumeMode, DEFAULT_BLOCK_SIZE};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The flush policy every job runs under: the shipped default, never relaxed.
pub const FLUSH_POLICY: &str =
    "fsync each value file and MANIFEST.json, rename, fsync the directory";

/// Largest arity the n-ary workload searches.
pub const MAX_ARITY: usize = 3;

/// A traced job's layer spans must cover at least this share of its job
/// span; the rest is glue between the calls (and dropping the results).
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// A traced job may take at most this share longer than the untraced jobs
/// it alternates with, or the breakdown does not describe the real job and
/// the run is not correct. It is the largest bound a time metric has.
pub const OVERHEAD_TOLERANCE: f64 = 0.25;

/// Longest a measured loop runs, whatever its job count: bounds a run's
/// time when jobs are slow (or a change makes them slow).
pub const LOOP_CAP_S: f64 = 40.0;

/// Set-ups timed per end-to-end run; `setup_s` is their median. A traced
/// run sets up once.
pub const SETUPS: usize = 5;

/// The reference kernel's ([`reference_kernel_s`]) wall time when the
/// 2-vCPU VM the recorded runs come from runs at full speed (its fastest
/// runs took 0.044-0.050 s, its median ones ~0.07 s). Every time metric is
/// a wall time scaled by this ÷ the kernel's time around it (see
/// [`HostClock`]), so it reads as that VM's seconds at full speed.
pub const NOMINAL_REFERENCE_S: f64 = 0.045;

/// Fewest jobs an end-to-end loop runs, time permitting: with 23 or more,
/// `job_s.tail` sits above the median.
pub const MIN_JOBS: usize = 25;

/// Fewest untraced/traced job pairs in a traced run.
pub const TRACE_MIN_JOBS: usize = 5;

/// One benchmark workload: a generated database and how jobs run over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// pdb-shaped database, every job exporting into an empty workdir.
    PdbCold,
    /// The same database over a workdir primed in set-up, resumed.
    PdbWarm,
    /// Few attributes with 4 KiB values, sorted under a small budget.
    WideSpill,
    /// Composite foreign keys, searched levelwise up to [`MAX_ARITY`].
    ChainsNary,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` gates on `pdb_warm`, `wide_spill`
    /// and `chains_nary`; `pdb_cold` runs by hand, because its fsync waits
    /// swing more between sets of runs on a shared host than any bound
    /// allows, and host-speed scaling does not reach them.
    pub const ALL: [Workload; 4] = [
        Workload::PdbCold,
        Workload::PdbWarm,
        Workload::WideSpill,
        Workload::ChainsNary,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PdbCold => "pdb_cold",
            Workload::PdbWarm => "pdb_warm",
            Workload::WideSpill => "wide_spill",
            Workload::ChainsNary => "chains_nary",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PdbCold => {
                "551 narrow attributes exported into an empty workdir: per-file \
                 fsync-publishing dominates, the merge is ~5%; fits the sort budget"
            }
            Workload::PdbWarm => {
                "same database over a primed workdir with --resume: every export is \
                 a manifest hit, so the time splits between load, resume scan and merge"
            }
            Workload::WideSpill => {
                "4 KiB values sorted under a budget ~30x smaller than the data: spill \
                 runs and large writes dominate, the merge is a few percent"
            }
            Workload::ChainsNary => {
                "the only levelwise composite extract, sort and validate, on top of a \
                 unary export of a few large tables"
            }
        }
    }

    /// Generator scale the benchmark runs at (the CLI's `--scale`).
    pub fn scale(self) -> usize {
        match self {
            Workload::PdbCold | Workload::PdbWarm => 500,
            Workload::WideSpill => 2000,
            Workload::ChainsNary => 50_000,
        }
    }

    /// Sorter memory budget: the CLI's 64 MiB default, except where the
    /// workload exists to spill.
    pub fn sort_budget(self) -> usize {
        match self {
            Workload::WideSpill => 1 << 20,
            _ => ind_valueset::SortOptions::DEFAULT_MEMORY_BUDGET,
        }
    }

    /// The generator behind the workload, with the CLI's scale mapping.
    pub fn generate(self, scale: usize, seed: u64) -> Database {
        match self {
            Workload::PdbCold | Workload::PdbWarm => {
                ind_datagen::generate_pdb(&ind_datagen::OpenMmsConfig {
                    entries: scale * 4,
                    base_rows: scale * 3,
                    seed,
                    ..ind_datagen::OpenMmsConfig::small_fraction()
                })
            }
            Workload::WideSpill => ind_datagen::generate_wide(&ind_datagen::WideConfig {
                rows: scale * 4,
                value_bytes: 4096,
                seed,
            }),
            Workload::ChainsNary => ind_datagen::generate_chains(&ind_datagen::ChainsConfig {
                structures: scale,
                seed,
            }),
        }
    }

    /// Export settings of the CLI's `discover --on-disk`: one export
    /// thread, 256 KiB blocks, per-frame CRC, the shipped flush policy.
    pub fn export_options(self) -> ExportOptions {
        let mut options = ExportOptions::with_threads(1);
        options.sort.memory_budget_bytes = self.sort_budget();
        if self == Workload::PdbWarm {
            options = options.resume(ResumeMode::Reuse);
        }
        options
    }

    fn is_cold(self) -> bool {
        self != Workload::PdbWarm
    }
}

/// A metric the benchmark reports. `jobbench/README.md` says what each
/// means and which end-to-end metric and workload a layer metric should move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    metric("job_s.p50", "s", "lower"),
    metric("job_s.tail", "s", "lower"),
    metric("input_mb_per_s", "MB/s", "higher"),
    metric("peak_rss_mb", "MiB", "lower"),
    metric("disk_bytes_per_input_byte", "ratio", "lower"),
    metric("ok_share", "ratio", "higher"),
    metric("setup_s", "s", "lower"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload does
/// not run reports 0.
pub const PER_LAYER: [MetricDef; 28] = [
    metric("storage.load_s", "s", "lower"),
    metric("storage.input_bytes", "bytes", "lower"),
    metric("export.busy_s", "s", "lower"),
    metric("export.cpu_s", "s", "lower"),
    metric("export.blocked_s", "s", "lower"),
    metric("export.bytes_written", "bytes", "lower"),
    metric("export.reuse_ratio", "ratio", "higher"),
    metric("export.sort_compares", "count", "lower"),
    metric("export.memcmp_share", "ratio", "lower"),
    metric("candidates.busy_s", "s", "lower"),
    metric("candidates.generated", "count", "lower"),
    metric("candidates.pruned_ratio", "ratio", "higher"),
    metric("merge.busy_s", "s", "lower"),
    metric("merge.items_read", "count", "lower"),
    metric("merge.value_bytes_read", "bytes", "lower"),
    metric("merge.comparisons", "count", "lower"),
    metric("merge.memcmp_share", "ratio", "lower"),
    metric("merge.read_calls", "count", "lower"),
    metric("merge.useful_ratio", "ratio", "higher"),
    metric("nary.busy_s", "s", "lower"),
    metric("nary.level1_s", "s", "lower"),
    metric("nary.level2_s", "s", "lower"),
    metric("nary.generated", "count", "lower"),
    metric("nary.pruned_projection", "count", "higher"),
    metric("nary.useful_ratio", "ratio", "higher"),
    metric("trace.overhead", "ratio", "lower"),
    metric("trace.coverage", "ratio", "higher"),
    metric("trace.jobs", "count", "higher"),
];

/// A workload's generated input and the oracle for it, ready for jobs.
#[derive(Debug)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// TSV database directory jobs load.
    pub db_dir: PathBuf,
    /// Workdir jobs export into (emptied before every cold job).
    pub work_dir: PathBuf,
    /// Bytes of TSV (and schema) in `db_dir`.
    pub input_bytes: u64,
    /// Tables in the database.
    pub tables: usize,
    /// Attributes in the database.
    pub attributes: usize,
    /// Candidates the oracle engine tested.
    pub candidates: u64,
    /// The expected IND set, one sorted line per IND.
    pub oracle: Vec<String>,
}

/// Generates the workload's database under `root`, writes it as TSV, loads
/// it back, computes the oracle and, for `pdb_warm`, primes the workdir.
pub fn prepare(
    workload: Workload,
    seed: u64,
    scale: usize,
    root: &Path,
) -> Result<Prepared, String> {
    let db_dir = root.join("db");
    let work_dir = root.join("work");
    remove_dir(&work_dir)?;
    let generated = workload.generate(scale, seed);
    tsv::save_database(&generated, &db_dir).map_err(|e| format!("writing TSV: {e}"))?;
    drop(generated);
    sync_tree(&db_dir)?;
    let input_bytes = dir_bytes(&db_dir)?;
    let db = tsv::load_database(&db_dir).map_err(|e| format!("loading TSV: {e}"))?;
    let max_arity = if workload == Workload::ChainsNary {
        MAX_ARITY
    } else {
        1
    };
    let (oracle, candidates) = oracle(&db, max_arity)?;
    let prepared = Prepared {
        workload,
        db_dir,
        work_dir,
        input_bytes,
        tables: db.table_count(),
        attributes: db.attribute_count(),
        candidates,
        oracle,
    };
    drop(db);
    if workload == Workload::PdbWarm {
        let primed = Workload::PdbCold.export_options();
        let db = tsv::load_database(&prepared.db_dir).map_err(|e| format!("loading TSV: {e}"))?;
        IndFinder::with_algorithm(Algorithm::Spider)
            .discover_on_disk_with(&db, &prepared.work_dir, &primed)
            .map_err(|e| format!("priming the warm workdir: {e}"))?;
        sync_tree(&prepared.work_dir)?;
    }
    Ok(prepared)
}

/// Marks NULL among interned value ids.
const NULL_ID: u32 = u32::MAX;

/// One column of the loaded database with its values interned.
struct OracleColumn {
    name: QualifiedName,
    table: usize,
    /// Per row, the id of the value's canonical rendering ([`NULL_ID`] for
    /// NULL). Equal renderings share an id across the whole database.
    ids: Vec<u32>,
    /// Non-empty and not LOB: may stand on the dependent side.
    dependent: bool,
    /// Non-NULL values, all distinct.
    unique: bool,
}

/// The expected IND set, found by testing every candidate of the jobs'
/// search space on the loaded rows — no profiles, candidate generator,
/// pretests, apriori join or value files of the program's. Arity 1: every
/// dependent column (non-empty, not LOB) against every other non-empty
/// column, which must also be unique when `max_arity` is 1 (the unary
/// runner's referenced side). Arity 2 up to `max_arity`: every ascending
/// list of dependent columns of one table against every duplicate-free
/// list of non-empty columns of one table, no position pairing a column
/// with itself. A candidate holds when each all-non-NULL dependent tuple
/// occurs among the referenced ones. The declared foreign keys over
/// non-empty columns must all hold. Returns the IND lines, sorted, and the
/// number of candidates tested.
fn oracle(db: &Database, max_arity: usize) -> Result<(Vec<String>, u64), String> {
    let columns = intern_columns(db);
    let mut by_table: Vec<Vec<usize>> = vec![Vec::new(); db.table_count()];
    for (i, c) in columns.iter().enumerate() {
        if c.ids.iter().any(|&id| id != NULL_ID) {
            by_table[c.table].push(i);
        }
    }
    // One tuple set per ascending column list: every dependent list is
    // one, and a referenced list is tested against its ascending order.
    let mut sets: HashMap<Vec<usize>, Vec<u128>> = HashMap::new();
    for table in &by_table {
        for arity in 1..=max_arity {
            for list in lists(table, arity, true) {
                let ids: Vec<&[u32]> = list.iter().map(|&c| columns[c].ids.as_slice()).collect();
                sets.insert(list, tuple_set(&ids));
            }
        }
    }
    let mut lines = Vec::new();
    let mut tested = 0u64;
    for arity in 1..=max_arity {
        for dep_table in &by_table {
            let deps: Vec<usize> = dep_table
                .iter()
                .copied()
                .filter(|&c| columns[c].dependent)
                .collect();
            for dep in lists(&deps, arity, true) {
                let dep_set = &sets[&dep];
                for ref_table in &by_table {
                    for refd in lists(ref_table, arity, false) {
                        if dep.iter().zip(&refd).any(|(d, r)| d == r)
                            || (max_arity == 1 && !columns[refd[0]].unique)
                        {
                            continue;
                        }
                        tested += 1;
                        // Sort the referenced list, and each dependent
                        // tuple along with it.
                        let mut order: Vec<usize> = (0..arity).collect();
                        order.sort_by_key(|&i| refd[i]);
                        let sorted: Vec<usize> = order.iter().map(|&i| refd[i]).collect();
                        let ref_set = &sets[&sorted];
                        let holds = dep_set.len() <= ref_set.len()
                            && dep_set.iter().all(|&t| {
                                let aligned = order
                                    .iter()
                                    .fold(0u128, |acc, &i| acc << 32 | component(t, arity, i));
                                ref_set.binary_search(&aligned).is_ok()
                            });
                        if holds {
                            let names = |list: &[usize]| -> Vec<QualifiedName> {
                                list.iter().map(|&c| columns[c].name.clone()).collect()
                            };
                            lines.push(ind_line(&names(&dep), &names(&refd)));
                        }
                    }
                }
            }
        }
    }
    lines.sort();
    let gold = db
        .gold_foreign_keys()
        .into_iter()
        .map(|(d, r)| (vec![d], vec![r]));
    for (dep, refd) in gold.chain(db.gold_composite_foreign_keys()) {
        let line = ind_line(&dep, &refd);
        let empty = dep.len() == 1
            && columns
                .iter()
                .any(|c| c.name == dep[0] && c.ids.iter().all(|&id| id == NULL_ID));
        // A declared key over an empty dependent column is no IND.
        if !empty && lines.binary_search(&line).is_err() {
            return Err(format!("oracle misses the declared foreign key {line}"));
        }
    }
    Ok((lines, tested))
}

/// Every column of `db`, in attribute order, with its values interned.
fn intern_columns(db: &Database) -> Vec<OracleColumn> {
    let mut dictionary: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for (table_index, table) in db.tables().iter().enumerate() {
        for (_, schema, values) in table.iter_columns() {
            let ids: Vec<u32> = values
                .iter()
                .map(|v| {
                    if v.is_null() {
                        return NULL_ID;
                    }
                    buf.clear();
                    v.render_canonical(&mut buf);
                    let next = dictionary.len() as u32;
                    *dictionary.entry(buf.clone()).or_insert(next)
                })
                .collect();
            let non_null = ids.iter().filter(|&&id| id != NULL_ID).count();
            let distinct = ids
                .iter()
                .filter(|&&id| id != NULL_ID)
                .collect::<HashSet<_>>()
                .len();
            out.push(OracleColumn {
                name: QualifiedName::new(table.name(), schema.name.clone()),
                table: table_index,
                ids,
                dependent: non_null > 0 && schema.data_type != DataType::Lob,
                unique: non_null > 0 && distinct == non_null,
            });
        }
    }
    out
}

/// The distinct all-non-NULL tuples of `columns` (one table's, row-aligned),
/// each packed exactly as 32 bits per component, first component highest;
/// sorted. Up to four components fit.
fn tuple_set(columns: &[&[u32]]) -> Vec<u128> {
    let rows = columns.first().map_or(0, |c| c.len());
    let mut set: Vec<u128> = (0..rows)
        .filter_map(|r| {
            columns.iter().try_fold(0u128, |acc, c| {
                (c[r] != NULL_ID).then(|| acc << 32 | u128::from(c[r]))
            })
        })
        .collect();
    set.sort_unstable();
    set.dedup();
    set.shrink_to_fit();
    set
}

/// Component `i` of a packed tuple of `arity` components.
fn component(tuple: u128, arity: usize, i: usize) -> u128 {
    (tuple >> (32 * (arity - 1 - i))) & u128::from(u32::MAX)
}

/// Every list of `k` distinct entries of `pool`: ascending ones only when
/// `ascending`, every order otherwise.
fn lists(pool: &[usize], k: usize, ascending: bool) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &first) in pool.iter().enumerate() {
        let rest: Vec<usize> = if ascending {
            pool[i + 1..].to_vec()
        } else {
            pool.iter().copied().filter(|&c| c != first).collect()
        };
        for tail in lists(&rest, k - 1, ascending) {
            out.push(std::iter::once(first).chain(tail).collect());
        }
    }
    out
}

fn unary_lines(discovery: &Discovery) -> Vec<String> {
    let mut lines: Vec<String> = discovery
        .satisfied_named()
        .iter()
        .map(|(dep, refd)| format!("{dep} <= {refd}"))
        .collect();
    lines.sort();
    lines
}

/// An IND as one line: `a <= b` when unary, `(a, b) <= (c, d)` otherwise.
fn ind_line(dep: &[QualifiedName], refd: &[QualifiedName]) -> String {
    let join = |names: &[QualifiedName]| {
        names
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if dep.len() == 1 {
        format!("{} <= {}", join(dep), join(refd))
    } else {
        format!("({}) <= ({})", join(dep), join(refd))
    }
}

fn nary_lines(discovery: &NaryDiscovery) -> Vec<String> {
    let name = |id: u32| &discovery.profiles[id as usize].name;
    let mut lines: Vec<String> = discovery
        .unary
        .iter()
        .map(|c| format!("{} <= {}", name(c.dep), name(c.refd)))
        .chain(
            discovery
                .satisfied_named()
                .iter()
                .map(|(dep, refd)| ind_line(dep, refd)),
        )
        .collect();
    lines.sort();
    lines
}

/// What a job hands back: the discovery, unconverted, so that naming and
/// checking it stay outside the timed region.
pub enum JobOutput {
    /// A unary SPIDER run.
    Unary(Discovery),
    /// A levelwise n-ary run.
    Nary(NaryDiscovery),
}

impl JobOutput {
    /// The IND set, one sorted line per IND, comparable with the oracle.
    pub fn lines(&self) -> Vec<String> {
        match self {
            JobOutput::Unary(d) => unary_lines(d),
            JobOutput::Nary(d) => nary_lines(d),
        }
    }

    /// Share of attributes whose export the manifest let the job reuse.
    pub fn reuse_ratio(&self) -> f64 {
        let (metrics, attributes) = match self {
            JobOutput::Unary(d) => (&d.metrics, d.profiles.len()),
            JobOutput::Nary(d) => (&d.metrics, d.profiles.len()),
        };
        ratio(metrics.exports_reused as f64, attributes as f64)
    }
}

/// One discovery job, exactly as a user runs it: load the TSV directory,
/// then the runner's on-disk path with the CLI's default settings.
pub fn run_job(p: &Prepared) -> Result<JobOutput, String> {
    let db = tsv::load_database(&p.db_dir).map_err(|e| format!("loading TSV: {e}"))?;
    let options = p.workload.export_options();
    match p.workload {
        Workload::ChainsNary => NaryFinder::with_max_arity(MAX_ARITY)
            .discover_on_disk(&db, &p.work_dir, &options)
            .map(JobOutput::Nary),
        _ => IndFinder::with_algorithm(Algorithm::Spider)
            .discover_on_disk_with(&db, &p.work_dir, &options)
            .map(JobOutput::Unary),
    }
    .map_err(|e| format!("discovery: {e}"))
}

/// Empties the workdir of a cold workload before a job (outside timing),
/// then commits the unlinks, so that freeing the previous job's blocks is
/// not paid inside the next job's first fsync.
pub fn reset_workdir(p: &Prepared) -> Result<(), String> {
    if p.workload.is_cold() {
        remove_dir(&p.work_dir)?;
        if let Some(parent) = p.work_dir.parent() {
            sync_path(parent)?;
        }
    }
    Ok(())
}

/// Flushes every file under `dir`, and `dir` itself, to disk, so that
/// set-up's writes are not written back during the timed jobs.
pub fn sync_tree(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            sync_tree(&path)?;
        } else {
            sync_path(&path)?;
        }
    }
    sync_path(dir)
}

fn sync_path(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("syncing {}: {e}", path.display()))
}

/// Checks a job's outcome against the oracle; `Err` names the mismatch.
pub fn check_job(p: &Prepared, outcome: &Result<JobOutput, String>) -> Result<(), String> {
    let output = outcome.as_ref().map_err(Clone::clone)?;
    if p.workload == Workload::PdbWarm && output.reuse_ratio() < 1.0 {
        return Err(format!(
            "not warm: export.reuse_ratio {} < 1.0",
            output.reuse_ratio()
        ));
    }
    compare_lines(&p.oracle, &output.lines())
}

fn compare_lines(expected: &[String], got: &[String]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let missing = expected.iter().find(|l| got.binary_search(l).is_err());
    let extra = got.iter().find(|l| expected.binary_search(l).is_err());
    Err(format!(
        "IND set differs from the oracle ({} expected, {} found; first missing {:?}, first extra {:?})",
        expected.len(),
        got.len(),
        missing,
        extra
    ))
}

/// A fixed piece of work owned by the benchmark, not the program, with
/// the kinds of cost a job has: render 2^17 pseudo-random integers as
/// strings, sort them, build a hash set of half of them and look every one
/// up; then fill a 16 MiB buffer and sum it. The heap is trimmed first,
/// as it is before every job, so the kernel faults its memory in as a job
/// does. Returns its wall time in seconds.
pub fn reference_kernel_s() -> f64 {
    trim_heap();
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<String> = (0..1u32 << 17)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            format!("{:x}", x >> 11)
        })
        .collect();
    keys.sort_unstable();
    let set: HashSet<&str> = keys.iter().step_by(2).map(String::as_str).collect();
    let hits = keys.iter().filter(|k| set.contains(k.as_str())).count();
    let mut buffer = vec![0u8; 16 << 20];
    for (i, b) in buffer.iter_mut().enumerate() {
        *b = (i as u8) ^ (x as u8);
    }
    let sum: u64 = buffer.iter().map(|&b| u64::from(b)).sum();
    std::hint::black_box((hits, sum));
    t0.elapsed().as_secs_f64()
}

/// Times work on a shared host whose speed drifts: the host's vCPU runs
/// for seconds at a time up to ~1.5x slower (a pure CPU loop slows as much
/// as a job). The reference kernel is timed right before and right after
/// the work, and the work's wall time is scaled by
/// [`NOMINAL_REFERENCE_S`] ÷ their mean, which cancels the drift while
/// keeping any change in the work itself. The kernel run after one piece
/// of work serves as the one before the next.
#[derive(Debug, Default)]
pub struct HostClock {
    last_reference_s: Option<f64>,
    /// Every reference-kernel time measured, in seconds.
    pub references: Vec<f64>,
}

impl HostClock {
    fn reference(&mut self) -> f64 {
        let r = reference_kernel_s();
        self.references.push(r);
        r
    }

    /// Runs `f`; returns its result, its wall time in seconds, and the
    /// factor that turns a wall time measured inside it into nominal
    /// seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.last_reference_s.take() {
            Some(r) => r,
            None => self.reference(),
        };
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let wall = t0.elapsed().as_secs_f64();
        let after = self.reference();
        self.last_reference_s = Some(after);
        (out, wall, NOMINAL_REFERENCE_S * 2.0 / (before + after))
    }

    /// Forgets the last reference time, after work not timed by this clock.
    pub fn break_chain(&mut self) {
        self.last_reference_s = None;
    }
}

/// Jobs of one closed loop: per-job times and the failures.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Time of every job in nominal seconds (see [`HostClock`]), in run
    /// order.
    pub times: Vec<f64>,
    /// Wall time of every job, in run order, in seconds.
    pub wall_times: Vec<f64>,
    /// Peak resident set of every job, in MiB: `VmHWM` from just before
    /// the job (after trimming the heap) to its end.
    pub peaks_mib: Vec<f64>,
    /// Jobs run.
    pub attempted: u64,
    /// Jobs that errored or disagreed with the oracle.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LoopStats {
    fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Runs one untraced job on a reset workdir, timed and then checked.
    fn timed_job(&mut self, p: &Prepared, clock: &mut HostClock) -> Result<(), String> {
        reset_workdir(p)?;
        // Returns what the previous job and the reference kernel left in
        // the heap, so that the peak is this job's own.
        reset_vm_hwm()?;
        // The peak is read inside the timed region (tens of microseconds),
        // before the reference kernel that follows the job.
        let ((outcome, peak_kib), wall, scale) = clock.time(|| (run_job(p), vm_hwm_kib()));
        self.peaks_mib.push(peak_kib? as f64 / 1024.0);
        self.times.push(wall * scale);
        self.wall_times.push(wall);
        self.record(check_job(p, &outcome));
        Ok(())
    }
}

/// True while a loop that started at `start` and has run `jobs` jobs
/// should go on: until `seconds` have passed and `min_jobs` have run, and
/// never past [`LOOP_CAP_S`].
fn loop_goes_on(start: Instant, seconds: f64, jobs: usize, min_jobs: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed < seconds || jobs < min_jobs) && elapsed < LOOP_CAP_S
}

/// One span of a traced job: name, start, end (ns since the trace began)
/// and the index of its parent span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for traced jobs, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in start order.
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) -> f64 {
        let end = self.now();
        let s = &mut self.spans[span];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e9
    }

    /// Time `f` as a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, Some(parent));
        let out = f();
        (out, self.close(span))
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}

/// The per-layer numbers of one traced job, in [`PER_LAYER`] order.
pub type LayerSample = Vec<(&'static str, f64)>;

/// A traced job: the runner's public calls made one by one from here, each
/// timed as a span under one `job` span. Returns the IND lines, the job's
/// wall time and its per-layer numbers (`trace.*` filled in by the caller).
pub fn traced_job(
    p: &Prepared,
    tracer: &mut Tracer,
) -> Result<(Vec<String>, f64, LayerSample), String> {
    let mut layer: LayerSample = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        if let Some(slot) = layer.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        }
    };
    let job = tracer.open("job", None);
    let (db, load_s) = tracer.time("storage.load", job, || tsv::load_database(&p.db_dir));
    let db = db.map_err(|e| format!("loading TSV: {e}"))?;
    set("storage.load_s", load_s);
    set("storage.input_bytes", p.input_bytes as f64);
    let options = p.workload.export_options();
    let (lines, job_s, children) = if p.workload == Workload::ChainsNary {
        let (found, nary_s) = tracer.time("nary", job, || {
            NaryFinder::with_max_arity(MAX_ARITY).discover_on_disk(&db, &p.work_dir, &options)
        });
        let found = found.map_err(|e| format!("discovery: {e}"))?;
        let ((), free_s) = tracer.time("free", job, || drop(db));
        let job_s = tracer.close(job);
        let level_s = |arity: usize| {
            found
                .levels
                .iter()
                .find(|l| l.arity == arity)
                .map_or(0.0, |l| l.elapsed.as_secs_f64())
        };
        let composite = found.levels.iter().filter(|l| l.arity >= 2);
        let generated: u64 = composite.clone().map(|l| l.generated).sum();
        let satisfied: u64 = composite.map(|l| l.satisfied).sum();
        set("nary.busy_s", nary_s);
        set("nary.level1_s", level_s(1));
        set("nary.level2_s", level_s(2));
        set("nary.generated", generated as f64);
        set(
            "nary.pruned_projection",
            found.metrics.pruned_projection as f64,
        );
        set(
            "nary.useful_ratio",
            ratio(satisfied as f64, generated as f64),
        );
        set(
            "export.reuse_ratio",
            ratio(
                found.metrics.exports_reused as f64,
                found.profiles.len() as f64,
            ),
        );
        (nary_lines(&found), job_s, load_s + nary_s + free_s)
    } else {
        let wchar0 = proc_io_wchar()?;
        let sched0 = thread_schedstat()?;
        let (export, export_s) = tracer.time("export", job, || {
            ExportedDatabase::export(&db, &p.work_dir, &options)
        });
        let sched1 = thread_schedstat()?;
        let wchar1 = proc_io_wchar()?;
        let export = export.map_err(|e| format!("export: {e}"))?;
        let attributes = export.attributes().len() as f64;
        let cpu_s = (sched1.0 - sched0.0) as f64 / 1e9;
        let runq_s = (sched1.1 - sched0.1) as f64 / 1e9;
        set("export.busy_s", export_s);
        set("export.cpu_s", cpu_s);
        set("export.blocked_s", (export_s - cpu_s - runq_s).max(0.0));
        set("export.bytes_written", (wchar1 - wchar0) as f64);
        set(
            "export.reuse_ratio",
            ratio(export.exports_reused() as f64, attributes),
        );
        let (key, memcmp) = (export.sort_key_compares(), export.sort_memcmp_compares());
        set("export.sort_compares", (key + memcmp) as f64);
        set(
            "export.memcmp_share",
            ratio(memcmp as f64, (key + memcmp) as f64),
        );

        let mut gen_metrics = RunMetrics::new();
        let ((profiles, candidates), candidates_s) = tracer.time("candidates", job, || {
            let profiles = profiles_from_export(&export);
            let candidates =
                generate_candidates(&profiles, &PretestConfig::default(), &mut gen_metrics);
            (profiles, candidates)
        });
        set("candidates.busy_s", candidates_s);
        set("candidates.generated", candidates.len() as f64);
        set(
            "candidates.pruned_ratio",
            ratio(
                (gen_metrics.pairs_considered - candidates.len() as u64) as f64,
                gen_metrics.pairs_considered as f64,
            ),
        );

        let mut merge_metrics = RunMetrics::new();
        let (satisfied, merge_s) = tracer.time("merge", job, || {
            export.reset_read_calls();
            let mut satisfied = run_spider(&export, &candidates, &mut merge_metrics)?;
            satisfied.sort();
            Ok::<_, ind_valueset::ValueSetError>(satisfied)
        });
        let satisfied = satisfied.map_err(|e| format!("merge: {e}"))?;
        let m = &merge_metrics;
        set("merge.busy_s", merge_s);
        set("merge.items_read", m.items_read as f64);
        set("merge.value_bytes_read", m.value_bytes_read as f64);
        set("merge.comparisons", m.comparisons as f64);
        set(
            "merge.memcmp_share",
            ratio(
                m.memcmp_compares as f64,
                (m.key_compares + m.memcmp_compares) as f64,
            ),
        );
        set("merge.read_calls", export.read_calls() as f64);
        set(
            "merge.useful_ratio",
            ratio(m.satisfied as f64, m.tested as f64),
        );
        let ((), free_s) = tracer.time("free", job, || {
            drop(export);
            drop(db);
        });
        let job_s = tracer.close(job);
        let name = |id: u32| &profiles[id as usize].name;
        let mut lines: Vec<String> = satisfied
            .iter()
            .map(|c| format!("{} <= {}", name(c.dep), name(c.refd)))
            .collect();
        lines.sort();
        (
            lines,
            job_s,
            load_s + export_s + candidates_s + merge_s + free_s,
        )
    };
    set("trace.coverage", ratio(children, job_s));
    Ok((lines, job_s, layer))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `values` by nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// The highest percentile of `times` with at least ten samples beyond it,
/// never below the median: `(value, percentile, samples beyond)`. With 22
/// samples or fewer that is the median (the upper one for an even count).
pub fn tail(times: &[f64]) -> (f64, f64, usize) {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let rank = n.saturating_sub(11).max(n / 2);
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64, n - rank - 1)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Removes `dir` and everything in it; absent is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// `(on-CPU ns, runqueue-wait ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`.
pub fn thread_schedstat() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("/proc/thread-self/schedstat: {e}"))?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(cpu)), Some(Ok(wait))) => Ok((cpu, wait)),
        _ => Err(format!("unexpected schedstat line {text:?}")),
    }
}

/// Bytes this process has passed to `write`-family calls (`wchar` of
/// `/proc/self/io`).
pub fn proc_io_wchar() -> Result<u64, String> {
    proc_field("/proc/self/io", "wchar:")
}

/// The `VmHWM` peak resident set of this process, in KiB.
pub fn vm_hwm_kib() -> Result<u64, String> {
    proc_field("/proc/self/status", "VmHWM:")
}

extern "C" {
    /// glibc: returns free heap memory at the top of every arena to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the heap's free memory back to the OS.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets `VmHWM` to the current resident set, after handing the freed
/// heap back to the OS so that it does not count as the next job's peak.
pub fn reset_vm_hwm() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn proc_field(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no {key} field"))
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Generator scale.
    pub scale: usize,
    /// Seconds of measured jobs.
    pub seconds: f64,
    /// Run the traced breakdown instead of the end-to-end loop.
    pub trace: bool,
    /// Scratch directory for the database, workdir and trace.
    pub root: PathBuf,
    /// Test hook: corrupt the oracle after set-up, which must make jobs fail.
    pub corrupt_oracle: bool,
}

/// The outcome of one run: the result-line fields plus run details.
#[derive(Debug)]
pub struct RunReport {
    /// Every job matched the oracle and every traced-run check held.
    pub correct: bool,
    /// Jobs run (warm-up, measured and traced).
    pub attempted: u64,
    /// Jobs that errored or disagreed with the oracle.
    pub failed: u64,
    /// `(name, value, unit)` for every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run details (workload description, sample counts, flags) as JSON.
    pub detail: String,
    /// Failure and check messages.
    pub errors: Vec<String>,
    /// Spans of the traced jobs as JSON (traced runs only).
    pub spans: Option<String>,
}

impl RunReport {
    /// The final result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs one benchmark run: set-up, a warm-up job, then either the measured
/// closed loop (end-to-end metrics) or untraced and traced jobs in
/// alternation (per-layer metrics).
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let w = cfg.workload;
    let mut clock = HostClock::default();
    // The kernel's first run pays one-time costs (code paging) no later
    // run does.
    reference_kernel_s();
    let mut setup_times = Vec::new();
    let mut setup_wall_times = Vec::new();
    let mut prepared = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        // Drop the previous set-up first, as a fresh process would start.
        drop(prepared.take());
        clock.break_chain();
        let (p, wall, scale) = clock.time(|| prepare(w, cfg.seed, cfg.scale, &cfg.root));
        prepared = Some(p?);
        setup_times.push(wall * scale);
        setup_wall_times.push(wall);
    }
    let mut p = prepared.ok_or("no set-up ran")?;
    if cfg.corrupt_oracle {
        p.oracle.pop();
    }
    let mut errors = Vec::new();

    // Warm-up: the first job pays lazy costs (page cache, code paging)
    // that no later job does. Checked, not timed.
    let mut warmup = LoopStats::default();
    reset_workdir(&p)?;
    let outcome = run_job(&p);
    warmup.record(check_job(&p, &outcome));
    drop(outcome);
    let disk_ratio = ratio(dir_bytes(&p.work_dir)? as f64, p.input_bytes as f64);
    let mut attempted = warmup.attempted;
    let mut failed = warmup.failed;
    errors.extend(warmup.errors);
    clock.break_chain();

    let mut stats = LoopStats::default();
    let mut metrics = Vec::new();
    let mut spans = None;
    let mut checks_ok = true;
    let mut traced_jobs = 0usize;
    let start = Instant::now();
    if cfg.trace {
        // Untraced and traced jobs alternate, so that both meet the same
        // host conditions and `trace.overhead` measures the tracing only.
        let mut tracer = Tracer::default();
        let mut samples: Vec<LayerSample> = Vec::new();
        let mut traced_times = Vec::new();
        while loop_goes_on(start, cfg.seconds, samples.len(), TRACE_MIN_JOBS) {
            stats.timed_job(&p, &mut clock)?;
            reset_workdir(&p)?;
            // From a trimmed heap, as every untraced job starts.
            trim_heap();
            attempted += 1;
            let (traced, _, scale) = clock.time(|| traced_job(&p, &mut tracer));
            let verdict = traced.and_then(|(lines, job_s, sample)| {
                compare_lines(&p.oracle, &lines)?;
                if p.workload == Workload::PdbWarm
                    && sample
                        .iter()
                        .any(|(n, v)| *n == "export.reuse_ratio" && *v < 1.0)
                {
                    return Err("traced job not warm: export.reuse_ratio < 1.0".into());
                }
                Ok((job_s * scale, sample))
            });
            match verdict {
                Ok((job_s, sample)) => {
                    traced_times.push(job_s);
                    samples.push(sample);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("traced: {e}"));
                }
            }
        }
        traced_jobs = samples.len();
        let overhead = ratio(median(&traced_times), median(&stats.times));
        for (i, def) in PER_LAYER.iter().enumerate() {
            let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            let value = match def.name {
                "trace.overhead" => overhead,
                "trace.jobs" => traced_jobs as f64,
                _ => median(&values),
            };
            metrics.push((def.name, value, def.unit));
        }
        let coverage = metrics
            .iter()
            .find(|m| m.0 == "trace.coverage")
            .map_or(0.0, |m| m.1);
        if coverage < 1.0 - COVERAGE_TOLERANCE {
            checks_ok = false;
            errors.push(format!(
                "layer spans cover {coverage:.4} of the job span, below 1 - {COVERAGE_TOLERANCE}"
            ));
        }
        if overhead > 1.0 + OVERHEAD_TOLERANCE {
            checks_ok = false;
            errors.push(format!(
                "traced jobs take {overhead:.4} times the untraced ones, above 1 + {OVERHEAD_TOLERANCE}"
            ));
        }
        spans = Some(tracer.to_json());
    } else {
        while loop_goes_on(start, cfg.seconds, stats.times.len(), MIN_JOBS) {
            stats.timed_job(&p, &mut clock)?;
        }
        if stats.times.len() < MIN_JOBS {
            errors.push(format!(
                "flag: the {LOOP_CAP_S} s cap stopped the loop after {} jobs",
                stats.times.len()
            ));
        }
    }
    attempted += stats.attempted;
    failed += stats.failed;
    errors.extend(stats.errors.iter().cloned());
    let p50 = median(&stats.times);
    let (tail_s, tail_pct, tail_beyond) = tail(&stats.times);
    if !cfg.trace {
        let total: f64 = stats.times.iter().sum();
        let input_mb = p.input_bytes as f64 / 1e6;
        let jobs = stats.times.len() as f64;
        let values = [
            ("job_s.p50", p50),
            ("job_s.tail", tail_s),
            ("input_mb_per_s", ratio(input_mb * jobs, total)),
            ("peak_rss_mb", median(&stats.peaks_mib)),
            ("disk_bytes_per_input_byte", disk_ratio),
            (
                "ok_share",
                ratio((attempted - failed) as f64, attempted as f64),
            ),
            ("setup_s", median(&setup_times)),
        ];
        for (name, value) in values {
            metrics.push((name, value, unit_of(&END_TO_END, name)));
        }
    }
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"input_bytes\": {}, \"tables\": {}, \
         \"attributes\": {}, \"oracle_candidates\": {}, \"inds\": {}, \"sort_budget_bytes\": {}, \
         \"block_bytes\": {}, \"export_threads\": 1, \"checksums\": true, \"flush\": {}, \
         \"client\": \"closed loop, 1 client\", \"setups\": {}, \"setup_s\": {:?}, \"jobs\": {}, \
         \"job_s.p50\": {}, \"job_s.p25\": {}, \"job_s.p75\": {}, \"tail_percentile\": {}, \"tail_beyond\": {}, \"traced_jobs\": {}, \
         \"nominal_reference_s\": {}, \"reference_s.p50\": {}, \"reference_s.min\": {}, \"reference_s.max\": {}, \
         \"wall_job_s.p50\": {}, \"wall_job_s.p25\": {}, \"wall_job_s.p75\": {}, \"wall_setup_s\": {:?}, \
         \"why\": {}}}",
        json_str(w.name()),
        cfg.seed,
        cfg.scale,
        p.input_bytes,
        p.tables,
        p.attributes,
        p.candidates,
        p.oracle.len(),
        w.sort_budget(),
        DEFAULT_BLOCK_SIZE,
        json_str(FLUSH_POLICY),
        setup_times.len(),
        setup_times,
        stats.times.len(),
        p50,
        quantile(&stats.times, 0.25),
        quantile(&stats.times, 0.75),
        tail_pct,
        tail_beyond,
        traced_jobs,
        NOMINAL_REFERENCE_S,
        median(&clock.references),
        quantile(&clock.references, 0.0),
        quantile(&clock.references, 1.0),
        median(&stats.wall_times),
        quantile(&stats.wall_times, 0.25),
        quantile(&stats.wall_times, 0.75),
        setup_wall_times,
        json_str(w.why()),
    );
    remove_dir(&p.work_dir)?;
    remove_dir(&p.db_dir)?;
    Ok(RunReport {
        correct: failed == 0 && checks_ok,
        attempted,
        failed,
        metrics,
        detail,
        errors,
        spans,
    })
}
