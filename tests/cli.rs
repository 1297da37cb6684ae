//! The `buffir` binary end to end, over an index saved to a temporary
//! directory: query terms the index cannot use are named on stderr,
//! and a closed stdout ends the output without a panic.

use buffir::index::{save_index, BuildOptions, IndexBuilder};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Saves a four-document index whose most frequent term, `alpha`, is
/// stopped, under `name` in a temporary directory.
fn saved_index(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("buffir-cli-it");
    std::fs::create_dir_all(&dir).unwrap();
    let mut builder = IndexBuilder::new();
    for doc in [
        "alpha beta",
        "alpha gamma",
        "alpha beta delta",
        "gamma delta",
    ] {
        builder.add_document(doc.split_whitespace());
    }
    let index = builder
        .build(BuildOptions {
            derive_stop_words: 1,
            ..BuildOptions::default()
        })
        .unwrap();
    let path = dir.join(name);
    save_index(&index, &path).unwrap();
    path
}

fn buffir(args: &[&str], file: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_buffir"));
    cmd.arg(args[0]).arg(file).args(&args[1..]);
    cmd
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts that stderr names `qqq` as unknown and `alpha` as stopped,
/// each once, and names no term the index uses.
fn assert_names_dropped_terms(out: &Output) {
    let stderr = text(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert_eq!(
        stderr.matches("\"qqq\" is not in the index").count(),
        1,
        "{stderr}"
    );
    assert_eq!(
        stderr.matches("\"alpha\" is a stop word").count(),
        1,
        "{stderr}"
    );
    assert!(!stderr.contains("beta"), "{stderr}");
    assert!(text(&out.stdout).contains("disk reads"));
}

#[test]
fn search_names_the_terms_it_drops_raw_and_analyzed() {
    let file = saved_index("search.bfpg");
    let raw = buffir(&["search", "alpha", "qqq", "beta", "qqq", "--raw"], &file)
        .output()
        .unwrap();
    assert_names_dropped_terms(&raw);
    // Analysis lower-cases the words before the lexicon sees them.
    let analyzed = buffir(&["search", "Alpha", "QQQ", "beta"], &file)
        .output()
        .unwrap();
    assert_names_dropped_terms(&analyzed);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn repl_names_the_terms_it_drops() {
    let file = saved_index("repl.bfpg");
    let mut child = buffir(&["repl", "--raw"], &file)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"alpha qqq beta\n:quit\n")
        .unwrap();
    assert_names_dropped_terms(&child.wait_with_output().unwrap());
    let _ = std::fs::remove_file(&file);
}

/// `buffir info FILE | head -1`: a reader that has gone before the
/// first write ends the output, with status 0 and no panic.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let file = saved_index("info.bfpg");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = buffir(&["info"], &file).stdout(writer).output().unwrap();
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&file);
}
