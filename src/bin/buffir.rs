//! `buffir` — command-line front end.
//!
//! ```sh
//! buffir demo                              # interactive REPL on sample docs
//! buffir generate --scale 0.05 -o wsj.bfpg # synthetic collection → index file
//! buffir info wsj.bfpg                     # index statistics
//! buffir search wsj.bfpg xab xcd           # one-shot query (raw terms)
//! buffir repl wsj.bfpg --raw               # interactive session on an index
//! ```
//!
//! The REPL shares its buffer pool across queries, so refining a query
//! interactively reproduces the paper's workload; `:stats` shows the
//! running disk-read counters and `:policy` / `:alg` switch the
//! configuration live. `search` and the REPL name on stderr each query
//! term the index cannot use. Output goes through one stdout handle,
//! and a closed stdout (`buffir info FILE | head -1`) ends it quietly.

use buffir::engine::{EngineConfig, SearchEngine};
use buffir::{Algorithm, PolicyKind};
use std::io::{BufRead, ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "usage:
  buffir demo
  buffir generate --scale SIGMA [-o FILE] [--seed N]
  buffir info FILE
  buffir search FILE TERM [TERM ...] [--raw] [--alg df|baf] [--policy lru|mru|rap|...] [--buffers N]
  buffir repl [FILE] [--raw]";

const DEMO_DOCS: [&str; 8] = [
    "Drastic price increases hit American stockmarkets as traders fled.",
    "A quiet trading day on the bond market; yields drifted lower.",
    "Stockmarket prices rallied strongly after last October's crash.",
    "The American economy keeps growing while consumer prices stay stable.",
    "Investment funds shifted money from bonds into American equities.",
    "Analysts expect drastic interest rate increases later this year.",
    "Crash investigators examined the market data from Black Monday.",
    "Prices of computer equipment continue their drastic decline.",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("demo") => repl(&mut out, None, false),
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&mut out, &args[1..]),
        Some("search") => search(&mut out, &args[1..]),
        Some("repl") => {
            let raw = args.iter().any(|a| a == "--raw");
            let file = args.get(1).filter(|a| !a.starts_with("--")).cloned();
            repl(&mut out, file, raw)
        }
        Some("--help") | Some("-h") | None => writeln!(out, "{USAGE}").map_err(Into::into),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
    .and_then(|()| out.flush().map_err(Into::into));
    let Err(e) = result else {
        return ExitCode::SUCCESS;
    };
    match e.downcast_ref::<std::io::Error>() {
        // Whoever read stdout stopped reading: the output is over.
        Some(io) if io.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        _ => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn generate(args: &[String]) -> CliResult {
    let scale: f64 = flag_value(args, "--scale").unwrap_or("0.03125").parse()?;
    let out = flag_value(args, "-o").unwrap_or("collection.bfpg");
    let mut cfg = buffir::corpus::CorpusConfig::paper_scaled(scale);
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = seed.parse()?;
    }
    eprintln!(
        "generating collection at scale {scale} (seed {}) ...",
        cfg.seed
    );
    let t = std::time::Instant::now();
    let corpus = buffir::corpus::Corpus::generate(cfg);
    let index = buffir::engine::index_corpus(&corpus, false)?;
    eprintln!(
        "  {} docs, {} terms, {} postings, {} pages in {:.1?}",
        index.n_docs(),
        index.n_terms(),
        index.total_postings(),
        index.total_pages(),
        t.elapsed()
    );
    buffir::index::save_index(&index, std::path::Path::new(out))?;
    let size = std::fs::metadata(out)?.len();
    eprintln!("wrote {out} ({:.1} MB)", size as f64 / 1_048_576.0);
    Ok(())
}

fn info(out: &mut impl Write, args: &[String]) -> CliResult {
    let file = args.first().ok_or("info needs an index file")?;
    let index = buffir::index::load_index(std::path::Path::new(file))?;
    writeln!(
        out,
        "{file}: {} docs, {} terms ({} indexed), {} postings, {} pages (PageSize {})",
        index.n_docs(),
        index.n_terms(),
        index.lexicon().n_indexed_terms(),
        index.total_postings(),
        index.total_pages(),
        index.params().page_size
    )?;
    let memory = index.memory();
    let mb = |bytes: usize| bytes as f64 / 1e6;
    writeln!(
        out,
        "  memory {:.1} MB: postings {:.1}, page records {:.1}, lexicon {:.1}, conversion {:.1}, W_d {:.1}",
        mb(memory.total()),
        mb(memory.postings),
        mb(memory.page_records),
        mb(memory.lexicon),
        mb(memory.conversion),
        mb(memory.vector_lengths)
    )?;
    let max_idf = f64::from(index.n_docs()).log2();
    for band in index
        .lexicon()
        .idf_bands(&[1.91, 3.10, 5.42, 8.74, max_idf.max(8.75) + 0.01])
    {
        writeln!(
            out,
            "  idf {:>5.2}–{:<5.2}: {:>8} terms, {}–{} pages",
            band.idf_low, band.idf_high, band.n_terms, band.min_pages, band.max_pages
        )?;
    }
    Ok(())
}

fn parse_engine_flags(args: &[String], config: &mut EngineConfig) -> CliResult {
    if let Some(alg) = flag_value(args, "--alg") {
        config.algorithm = alg.parse::<Algorithm>()?;
    }
    if let Some(policy) = flag_value(args, "--policy") {
        config.policy = policy.parse::<PolicyKind>()?;
    }
    if let Some(buffers) = flag_value(args, "--buffers") {
        config.buffer_pages = buffers.parse()?;
    }
    Ok(())
}

/// The query's `(term, f_{q,t})` pairs: the words as given under
/// `--raw`, else what the engine's analyzer makes of them. Names on
/// stderr each term the lexicon lacks or stops, once.
fn query_terms(engine: &SearchEngine, words: &[&str], raw: bool) -> Vec<(String, u32)> {
    let terms: Vec<String> = if raw {
        words.iter().map(|w| w.to_string()).collect()
    } else {
        engine.analyzer().analyze(&words.join(" "))
    };
    let lexicon = engine.index().lexicon();
    for (i, name) in terms.iter().enumerate() {
        if terms[..i].contains(name) {
            continue;
        }
        let why = match lexicon.lookup(name).map(|id| lexicon.entry(id)) {
            None => "not in the index",
            Some(Ok(e)) if e.stopped => "a stop word",
            Some(_) => continue,
        };
        eprintln!("{name:?} is {why}; it is left out of the query");
    }
    terms.into_iter().map(|t| (t, 1)).collect()
}

fn search(out: &mut impl Write, args: &[String]) -> CliResult {
    let file = args.first().ok_or("search needs an index file")?;
    let raw = args.iter().any(|a| a == "--raw");
    let mut config = EngineConfig::default();
    parse_engine_flags(args, &mut config)?;
    let index = buffir::index::load_index(std::path::Path::new(file))?;
    let mut engine = SearchEngine::new(index, config)?;
    let mut skip_next = false;
    let words: Vec<&str> = args[1..]
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if ["--alg", "--policy", "--buffers"].contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    if words.is_empty() {
        return Err("no query terms given".into());
    }
    let terms = query_terms(&engine, &words, raw);
    let result = engine.search_terms(&terms)?;
    print_hits(out, &result)?;
    Ok(())
}

fn print_hits(out: &mut impl Write, result: &buffir::QueryResult) -> std::io::Result<()> {
    if result.hits.is_empty() {
        writeln!(out, "(no results)")?;
    }
    for (rank, hit) in result.hits.iter().enumerate() {
        writeln!(out, "{:>3}. {}  score {:.4}", rank + 1, hit.doc, hit.score)?;
    }
    writeln!(
        out,
        "[{} disk reads, {} pages processed, {} entries, {} accumulators]",
        result.stats.disk_reads,
        result.stats.pages_processed,
        result.stats.entries_processed,
        result.stats.peak_accumulators
    )
}

fn repl(out: &mut impl Write, file: Option<String>, raw: bool) -> CliResult {
    let mut engine = match &file {
        Some(f) => {
            let index = buffir::index::load_index(std::path::Path::new(f))?;
            SearchEngine::new(index, EngineConfig::default())?
        }
        None => {
            eprintln!(
                "(demo collection: {} documents about markets)",
                DEMO_DOCS.len()
            );
            SearchEngine::from_texts(DEMO_DOCS, EngineConfig::default())?
        }
    };
    eprintln!(
        "buffir repl — {} / {} over {} buffer pages. Type a query, or :help.",
        engine.config().algorithm,
        engine.config().policy,
        engine.config().buffer_pages
    );
    let stdin = std::io::stdin();
    loop {
        write!(out, "buffir> ")?;
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix(':') {
            let parts: Vec<&str> = cmd.split_whitespace().collect();
            match parts.as_slice() {
                ["quit"] | ["q"] | ["exit"] => break,
                ["help"] => writeln!(
                    out,
                    ":policy <lru|mru|rap|lru2|2q|fifo|clock>  switch replacement policy\n\
                     :alg <full|df|baf>                        switch algorithm\n\
                     :buffers <N>                              resize the pool\n\
                     :flush                                    cold buffers\n\
                     :stats                                    buffer counters\n\
                     :quit                                     leave"
                )?,
                ["flush"] => {
                    engine.flush_buffers();
                    writeln!(out, "buffers flushed")?;
                }
                ["stats"] => {
                    let s = engine.buffer_stats();
                    writeln!(
                        out,
                        "requests {} | hits {} | misses {} | evictions {} | hit ratio {:.1} %",
                        s.requests,
                        s.hits,
                        s.misses,
                        s.evictions,
                        s.hit_ratio() * 100.0
                    )?;
                }
                ["policy", p] => match p.parse::<PolicyKind>() {
                    Ok(policy) => {
                        let mut c = engine.config();
                        c.policy = policy;
                        engine.reconfigure(c)?;
                        writeln!(out, "policy → {policy} (pool rebuilt cold)")?;
                    }
                    Err(e) => writeln!(out, "{e}")?,
                },
                ["alg", a] => match a.parse::<Algorithm>() {
                    Ok(alg) => {
                        let mut c = engine.config();
                        c.algorithm = alg;
                        engine.reconfigure(c)?;
                        writeln!(out, "algorithm → {alg}")?;
                    }
                    Err(e) => writeln!(out, "{e}")?,
                },
                ["buffers", n] => match n.parse::<usize>() {
                    Ok(pages) if pages > 0 => {
                        let mut c = engine.config();
                        c.buffer_pages = pages;
                        engine.reconfigure(c)?;
                        writeln!(out, "buffer pool → {pages} pages (cold)")?;
                    }
                    _ => writeln!(out, "buffers needs a positive number")?,
                },
                other => writeln!(out, "unknown command {other:?} — try :help")?,
            }
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let terms = query_terms(&engine, &words, raw);
        match engine.search_terms(&terms) {
            Ok(r) => print_hits(out, &r)?,
            Err(e) => writeln!(out, "query failed: {e}")?,
        }
    }
    Ok(())
}
