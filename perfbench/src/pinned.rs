//! Pinned output fingerprints and their comparison.
//!
//! `pinned.txt` holds one `seed workload cell hash` line per fingerprint
//! the benchmark knows the right value of. A seed with pins for a
//! workload is checked against them on every pass; any other seed is a
//! held-out seed, checked only for conformance and pass-to-pass equality.

/// A cell's output fingerprint: (cell name, 64-bit hash).
pub type Print = (String, u64);

#[derive(Clone, Debug, PartialEq)]
pub struct Pin {
    pub seed: u64,
    pub workload: String,
    pub cell: String,
    pub hash: u64,
}

pub const PINNED: &str = include_str!("../pinned.txt");

/// Parse pin lines; `#` starts a comment line.
pub fn parse(text: &str) -> Result<Vec<Pin>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, cell, hash] = f[..] else {
                return Err(format!("pin line needs 4 fields: {line:?}"));
            };
            Ok(Pin {
                seed: seed
                    .parse()
                    .map_err(|e| format!("bad seed in {line:?}: {e}"))?,
                workload: workload.to_string(),
                cell: cell.to_string(),
                hash: u64::from_str_radix(hash, 16)
                    .map_err(|e| format!("bad hash in {line:?}: {e}"))?,
            })
        })
        .collect()
}

/// The pins for one (seed, workload); empty for a held-out seed.
pub fn for_run<'a>(pins: &'a [Pin], seed: u64, workload: &str) -> Vec<&'a Pin> {
    pins.iter()
        .filter(|p| p.seed == seed && p.workload == workload)
        .collect()
}

/// Mismatches of `got` against `pins`: a pinned cell that is missing or
/// has another hash. Cells without a pin are not judged here.
pub fn check(pins: &[&Pin], got: &[Print]) -> Vec<String> {
    pins.iter()
        .filter_map(|pin| match got.iter().find(|(cell, _)| *cell == pin.cell) {
            None => Some(format!("{}: pinned cell missing from the output", pin.cell)),
            Some((_, h)) if *h != pin.hash => Some(format!(
                "{}: fingerprint {h:016x}, pinned {:016x}",
                pin.cell, pin.hash
            )),
            Some(_) => None,
        })
        .collect()
}

/// Differences between two passes' fingerprints (same cells, same hashes).
pub fn diff(reference: &[Print], got: &[Print]) -> Vec<String> {
    if reference.len() != got.len() {
        return vec![format!(
            "{} cells, reference pass had {}",
            got.len(),
            reference.len()
        )];
    }
    reference
        .iter()
        .zip(got)
        .filter(|(a, b)| a != b)
        .map(|((ca, ha), (cb, hb))| format!("{cb} {hb:016x} differs from reference {ca} {ha:016x}"))
        .collect()
}

/// FNV-1a 64-bit over a byte stream — the fingerprint the repository's
/// `TRACE_baseline.txt` and BENCH files pin.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn print(cell: &str, hash: u64) -> Print {
        (cell.to_string(), hash)
    }

    #[test]
    fn pinned_file_parses_and_pins_the_baseline_seed() {
        let pins = parse(PINNED).expect("pinned.txt parses");
        for w in ["paper_apps", "batch_200", "fleet_stream"] {
            assert!(
                !for_run(&pins, 2008, w).is_empty(),
                "{w} has pins at seed 2008"
            );
        }
        assert!(for_run(&pins, 2009, "batch_200").is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("2008 w c").is_err());
        assert!(parse("x w c 00").is_err());
        assert!(parse("1 w c zz").is_err());
        assert_eq!(parse("# note\n\n").expect("comments only"), vec![]);
    }

    #[test]
    fn check_reports_wrong_and_missing_cells_only() {
        let pins = parse("1 w a 0a\n1 w b 0b\n1 w c 0c\n").expect("valid");
        let refs: Vec<&Pin> = pins.iter().collect();
        let got = [print("a", 0xa), print("b", 0xbb), print("extra", 1)];
        let bad = check(&refs, &got);
        assert_eq!(bad.len(), 2);
        assert!(bad[0].starts_with("b: fingerprint 00000000000000bb"));
        assert!(bad[1].starts_with("c: pinned cell missing"));
        assert!(check(&refs, &[print("a", 0xa), print("b", 0xb), print("c", 0xc)]).is_empty());
    }

    #[test]
    fn diff_compares_cell_by_cell() {
        let a = [print("x", 1), print("y", 2)];
        assert!(diff(&a, &a).is_empty());
        assert_eq!(diff(&a, &[print("x", 1), print("y", 3)]).len(), 1);
        assert_eq!(diff(&a, &a[..1]).len(), 1);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
    }
}
