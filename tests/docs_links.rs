//! Intra-repo markdown link checker for the top-level docs.
//!
//! The docs cross-reference each other heavily (README → DESIGN →
//! ARCHITECTURE → OBSERVABILITY → WIRE → EXPERIMENTS) and link into the
//! source tree; a renamed file or section silently strands those links.
//! This test walks every `[text](target)` link in the checked docs and
//! fails on:
//!
//! - relative targets that do not exist on disk,
//! - `#anchor` fragments that match no heading in the target document
//!   (GitHub slug rules: lowercase, punctuation stripped, spaces to
//!   hyphens, `-N` suffixes for duplicates),
//! - `#L<n>` anchors into source files whose line does not exist, or,
//!   when the link text names a backticked identifier
//!   (`` [`Frame::decode`](…#L670) ``), whose line does not contain it.
//!
//! External links (`http://`, `https://`, `mailto:`) are out of scope.
//! CI runs this in the docs job, next to rustdoc.

use std::collections::HashMap;
use std::path::PathBuf;

/// Top-level documents whose outgoing links are verified. Link *targets*
/// may be any file in the repo.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "OBSERVABILITY.md",
    "EXPERIMENTS.md",
    "WIRE.md",
    "ROADMAP.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `(line_number, link_text, target)` for every inline markdown
/// link, skipping fenced code blocks (``` ... ```) where link syntax is
/// code, not reference. The text is empty when it began on an earlier line.
fn extract_links(text: &str) -> Vec<(usize, String, String)> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // Find the `](` that closes a link text and opens its target.
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let start = i + 2;
                // The target runs to the matching `)` (no nesting in our
                // docs; titles like `(... "title")` are not used).
                if let Some(rel_end) = line[start..].find(')') {
                    let target = line[start..start + rel_end].trim();
                    if !target.is_empty() {
                        let link_text = line[..i].rfind('[').map_or("", |open| &line[open + 1..i]);
                        links.push((lineno + 1, link_text.to_string(), target.to_string()));
                    }
                    i = start + rel_end;
                }
            }
            i += 1;
        }
    }
    links
}

/// GitHub-style anchor slugs for every heading in a markdown document,
/// including the `-N` suffixes appended to duplicates.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#').trim();
        let mut base = String::new();
        for c in heading.chars() {
            match c {
                'A'..='Z' => base.push(c.to_ascii_lowercase()),
                'a'..='z' | '0'..='9' | '_' | '-' => base.push(c),
                ' ' => base.push('-'),
                // Punctuation (including `·`, `§`, backticks, colons)
                // is dropped, as GitHub does.
                _ => {}
            }
        }
        let n = counts.entry(base.clone()).or_insert(0);
        let slug = if *n == 0 { base.clone() } else { format!("{base}-{n}") };
        *n += 1;
        slugs.push(slug);
    }
    slugs
}

/// Checks an `L<n>` anchor into `source`: line `n` must exist, and when
/// `link_text` holds a backticked identifier, it must contain the
/// identifier's last path segment (`Frame::decode` → `decode`).
fn check_source_anchor(source: &str, anchor: &str, link_text: &str) -> Result<(), String> {
    let Some(n) = anchor.strip_prefix('L').and_then(|n| n.parse::<usize>().ok()) else {
        return Err(format!("`#{anchor}` is not a line anchor"));
    };
    let lines: Vec<&str> = source.lines().collect();
    let Some(line) = n.checked_sub(1).and_then(|i| lines.get(i)) else {
        return Err(format!("`#{anchor}` is past the end ({} lines)", lines.len()));
    };
    let ident = link_text
        .split('`')
        .nth(1)
        .and_then(|code| code.rsplit("::").next())
        .map(|seg| seg.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or(""))
        .unwrap_or("");
    if !ident.is_empty() && !line.contains(ident) {
        return Err(format!("line {n} does not mention `{ident}`: {}", line.trim()));
    }
    Ok(())
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = repo_root();
    let mut slug_cache: HashMap<PathBuf, Vec<String>> = HashMap::new();
    let mut broken = Vec::new();

    for doc in DOCS {
        let doc_path = root.join(doc);
        let text = match std::fs::read_to_string(&doc_path) {
            Ok(t) => t,
            Err(_) => {
                broken.push(format!("{doc}: checked document is missing"));
                continue;
            }
        };
        slug_cache.entry(doc_path.clone()).or_insert_with(|| heading_slugs(&text));

        for (lineno, link_text, target) in extract_links(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (file_part, anchor) = match target.split_once('#') {
                Some((f, a)) => (f, Some(a.to_string())),
                None => (target.as_str(), None),
            };
            // Resolve the file half: empty means "this document".
            let resolved: PathBuf =
                if file_part.is_empty() { doc_path.clone() } else { root.join(file_part) };
            if !resolved.exists() {
                broken.push(format!("{doc}:{lineno}: target `{target}` does not exist"));
                continue;
            }
            // Anchors into source files name lines; into markdown, headings.
            if let Some(anchor) = anchor {
                match resolved.extension().and_then(|e| e.to_str()) {
                    Some("rs") => {
                        let source = std::fs::read_to_string(&resolved).unwrap_or_default();
                        if let Err(why) = check_source_anchor(&source, &anchor, &link_text) {
                            broken.push(format!("{doc}:{lineno}: `{target}`: {why}"));
                        }
                        continue;
                    }
                    Some("md") => {}
                    _ => continue,
                }
                let slugs = slug_cache.entry(resolved.clone()).or_insert_with(|| {
                    std::fs::read_to_string(&resolved)
                        .map(|t| heading_slugs(&t))
                        .unwrap_or_default()
                });
                if !slugs.iter().any(|s| s == &anchor) {
                    broken.push(format!(
                        "{doc}:{lineno}: anchor `#{anchor}` not found in {}",
                        resolved.strip_prefix(&root).unwrap_or(&resolved).display()
                    ));
                }
            }
        }
    }

    assert!(broken.is_empty(), "broken intra-repo markdown links:\n  {}", broken.join("\n  "));
}

#[test]
fn link_extractor_handles_the_syntax_we_use() {
    let text = "see [a](X.md) and [b](Y.md#sec-1), skip [c](https://x)\n\
                ```\n[not a link](Z.md)\n```\n\
                [tail](W.md)";
    let links = extract_links(text);
    let targets: Vec<&str> = links.iter().map(|(_, _, t)| t.as_str()).collect();
    assert_eq!(targets, vec!["X.md", "Y.md#sec-1", "https://x", "W.md"]);
    assert_eq!(links[1].1, "b");
    let texts = extract_links("- [`Frame::decode`](src/a.rs#L2)`(kind)` and [x](y.md)");
    assert_eq!(texts[0].1, "`Frame::decode`");
    assert_eq!(texts[1].1, "x");

    let slugs = heading_slugs("# Big Title!\n## §3 · Wire format\n## Wire format\ntext");
    assert!(slugs.contains(&"big-title".to_string()), "{slugs:?}");
    assert!(slugs.contains(&"3--wire-format".to_string()), "{slugs:?}");
}

#[test]
fn source_anchors_must_name_a_real_line_holding_the_identifier() {
    let src = "//! doc\npub fn decode(kind: u8) {}\nconst MAX: usize = 1;\n";
    assert_eq!(check_source_anchor(src, "L2", "`Frame::decode`"), Ok(()));
    assert_eq!(check_source_anchor(src, "L2", "`decode`(kind)"), Ok(()));
    assert_eq!(check_source_anchor(src, "L3", "src/a.rs#L3"), Ok(()), "no identifier, line only");
    assert!(check_source_anchor(src, "L3", "`Frame::decode`").is_err(), "wrong line");
    assert!(check_source_anchor(src, "L4", "").is_err(), "past the end");
    assert!(check_source_anchor(src, "L0", "").is_err(), "lines count from 1");
    assert!(check_source_anchor(src, "decode", "").is_err(), "not a line anchor");
}
