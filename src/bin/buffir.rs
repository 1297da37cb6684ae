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
//! configuration live.

use buffir::engine::{EngineConfig, SearchEngine};
use buffir::{Algorithm, PolicyKind};
use std::io::{BufRead, Write};
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
    let result = match args.first().map(String::as_str) {
        Some("demo") => repl(None, false),
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("search") => search(&args[1..]),
        Some("repl") => {
            let raw = args.iter().any(|a| a == "--raw");
            let file = args.get(1).filter(|a| !a.starts_with("--")).cloned();
            repl(file, raw)
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
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

fn info(args: &[String]) -> CliResult {
    let file = args.first().ok_or("info needs an index file")?;
    let index = buffir::index::load_index(std::path::Path::new(file))?;
    println!(
        "{file}: {} docs, {} terms ({} indexed), {} postings, {} pages (PageSize {})",
        index.n_docs(),
        index.n_terms(),
        index.lexicon().n_indexed_terms(),
        index.total_postings(),
        index.total_pages(),
        index.params().page_size
    );
    let memory = index.memory();
    let mb = |bytes: usize| bytes as f64 / 1e6;
    println!(
        "  memory {:.1} MB: postings {:.1}, page records {:.1}, lexicon {:.1}, conversion {:.1}, W_d {:.1}",
        mb(memory.total()),
        mb(memory.postings),
        mb(memory.page_records),
        mb(memory.lexicon),
        mb(memory.conversion),
        mb(memory.vector_lengths)
    );
    let max_idf = f64::from(index.n_docs()).log2();
    for band in index
        .lexicon()
        .idf_bands(&[1.91, 3.10, 5.42, 8.74, max_idf.max(8.75) + 0.01])
    {
        println!(
            "  idf {:>5.2}–{:<5.2}: {:>8} terms, {}–{} pages",
            band.idf_low, band.idf_high, band.n_terms, band.min_pages, band.max_pages
        );
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

fn search(args: &[String]) -> CliResult {
    let file = args.first().ok_or("search needs an index file")?;
    let raw = args.iter().any(|a| a == "--raw");
    let mut config = EngineConfig::default();
    parse_engine_flags(args, &mut config)?;
    let index = buffir::index::load_index(std::path::Path::new(file))?;
    let mut engine = SearchEngine::new(index, config)?;
    let mut skip_next = false;
    let terms: Vec<(String, u32)> = args[1..]
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
        .map(|a| (a.clone(), 1))
        .collect();
    if terms.is_empty() {
        return Err("no query terms given".into());
    }
    let result = if raw {
        engine.search_terms(&terms)?
    } else {
        let text = terms
            .iter()
            .map(|(t, _)| t.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        engine.search_text(&text)?
    };
    print_hits(&result);
    Ok(())
}

fn print_hits(result: &buffir::QueryResult) {
    if result.hits.is_empty() {
        println!("(no results)");
    }
    for (rank, hit) in result.hits.iter().enumerate() {
        println!("{:>3}. {}  score {:.4}", rank + 1, hit.doc, hit.score);
    }
    println!(
        "[{} disk reads, {} pages processed, {} entries, {} accumulators]",
        result.stats.disk_reads,
        result.stats.pages_processed,
        result.stats.entries_processed,
        result.stats.peak_accumulators
    );
}

fn repl(file: Option<String>, raw: bool) -> CliResult {
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
    let mut out = std::io::stdout();
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
                ["help"] => println!(
                    ":policy <lru|mru|rap|lru2|2q|fifo|clock>  switch replacement policy\n\
                     :alg <full|df|baf>                        switch algorithm\n\
                     :buffers <N>                              resize the pool\n\
                     :flush                                    cold buffers\n\
                     :stats                                    buffer counters\n\
                     :quit                                     leave"
                ),
                ["flush"] => {
                    engine.flush_buffers();
                    println!("buffers flushed");
                }
                ["stats"] => {
                    let s = engine.buffer_stats();
                    println!(
                        "requests {} | hits {} | misses {} | evictions {} | hit ratio {:.1} %",
                        s.requests,
                        s.hits,
                        s.misses,
                        s.evictions,
                        s.hit_ratio() * 100.0
                    );
                }
                ["policy", p] => match p.parse::<PolicyKind>() {
                    Ok(policy) => {
                        let mut c = engine.config();
                        c.policy = policy;
                        engine.reconfigure(c)?;
                        println!("policy → {policy} (pool rebuilt cold)");
                    }
                    Err(e) => println!("{e}"),
                },
                ["alg", a] => match a.parse::<Algorithm>() {
                    Ok(alg) => {
                        let mut c = engine.config();
                        c.algorithm = alg;
                        engine.reconfigure(c)?;
                        println!("algorithm → {alg}");
                    }
                    Err(e) => println!("{e}"),
                },
                ["buffers", n] => match n.parse::<usize>() {
                    Ok(pages) if pages > 0 => {
                        let mut c = engine.config();
                        c.buffer_pages = pages;
                        engine.reconfigure(c)?;
                        println!("buffer pool → {pages} pages (cold)");
                    }
                    _ => println!("buffers needs a positive number"),
                },
                other => println!("unknown command {other:?} — try :help"),
            }
            continue;
        }
        let result = if raw {
            let terms: Vec<(String, u32)> = line
                .split_whitespace()
                .map(|t| (t.to_string(), 1))
                .collect();
            engine.search_terms(&terms)
        } else {
            engine.search_text(line)
        };
        match result {
            Ok(r) => print_hits(&r),
            Err(e) => println!("query failed: {e}"),
        }
    }
    Ok(())
}
