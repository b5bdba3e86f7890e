//! DESIGN.md's diagnostic registry tables agree with the code. Every code
//! of the lint-family registry (`spzip_core::lint::Code`) and of the
//! sanitizer registry (`spzip_sim::sanitize::Code`) has exactly one table
//! row, every row names a code of one of them, and a lint-family row's
//! Meaning cell is that code's `summary()`. A new code is therefore one
//! registry row plus one DESIGN.md row, and this test holds them together.

use spzip_core::lint;
use spzip_sim::sanitize;
use std::collections::BTreeMap;

/// Every way `design` disagrees with the two registries, one line each.
fn drift(design: &str) -> Vec<String> {
    let mut problems = Vec::new();
    // Code → Meaning cell of every table row whose first cell is a code.
    let mut rows = BTreeMap::new();
    for line in design.lines() {
        let mut cells = line.strip_prefix("| ").unwrap_or_default().split(" | ");
        let (Some(code), Some(meaning)) = (cells.next(), cells.next()) else {
            continue;
        };
        let (family, number) = code.split_at(code.len().min(1));
        let is_code = family.bytes().all(|b| b.is_ascii_uppercase())
            && number.len() == 3
            && number.bytes().all(|b| b.is_ascii_digit());
        if is_code && rows.insert(code, meaning).is_some() {
            problems.push(format!("{code}: more than one row"));
        }
    }
    for c in lint::Code::all() {
        match rows.remove(c.as_str()) {
            None => problems.push(format!("{c}: no row")),
            Some(meaning) if meaning != c.summary() => problems.push(format!(
                "{c}: Meaning is `{meaning}`, summary() is `{}`",
                c.summary()
            )),
            Some(_) => {}
        }
    }
    for c in sanitize::Code::all() {
        if rows.remove(c.as_str()).is_none() {
            problems.push(format!("{c}: no row"));
        }
    }
    problems.extend(rows.keys().map(|code| format!("{code}: row names no code")));
    problems
}

#[test]
fn design_md_registry_tables_match_the_registries() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("read DESIGN.md");
    let problems = drift(&design);
    assert!(
        problems.is_empty(),
        "DESIGN.md's registry tables disagree with the code:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn drift_check_flags_missing_unknown_duplicate_and_edited_rows() {
    let mut lines: Vec<String> = vec!["| Code | Meaning | Example trigger |".into()];
    lines.extend(
        lint::Code::all()
            .iter()
            .map(|c| format!("| {c} | {} | example |", c.summary())),
    );
    lines.extend(sanitize::Code::all().map(|c| format!("| {c} | proves something | example |")));
    assert_eq!(drift(&lines.join("\n")), Vec::<String>::new());

    let edited = |f: &dyn Fn(&mut Vec<String>)| {
        let mut l = lines.clone();
        f(&mut l);
        drift(&l.join("\n"))
    };
    assert_eq!(edited(&|l| drop(l.remove(1))), ["E001: no row"]);
    assert_eq!(edited(&|l| drop(l.pop())), ["S010: no row"]);
    assert_eq!(
        edited(&|l| l.push("| E999 | no such code | x |".into())),
        ["E999: row names no code"]
    );
    assert_eq!(
        edited(&|l| l.push(l[2].clone())),
        ["E002: more than one row"]
    );
    assert_eq!(
        edited(&|l| l[1] = "| E001 | program has no queues | x |".into()),
        ["E001: Meaning is `program has no queues`, summary() is `program declares no queues`"]
    );
}
