//! Numeric distance: the absolute difference of two parsed numbers.

/// Extracts the first parseable floating point number from a string.
///
/// Values in messy data sets often embed units ("42 km") or labels
/// ("pop: 3,500,000"); this parser strips everything except digits, sign,
/// decimal point and exponent characters from the first numeric run.
pub fn parse_number(value: &str) -> Option<f64> {
    let trimmed = value.trim();
    if let Ok(v) = trimmed.parse::<f64>() {
        return Some(v);
    }
    // fall back to scanning for the first number-looking run, walking the
    // char iterator directly (no per-call buffer)
    let start = trimmed
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit() || *c == '-' || *c == '+')
        .map(|(i, _)| i)?;
    let mut end = start;
    let mut seen_dot = false;
    let mut first = true;
    for (offset, c) in trimmed[start..].char_indices() {
        let at = start + offset;
        if c.is_ascii_digit() || (first && (c == '-' || c == '+')) {
            end = at + c.len_utf8();
        } else if c == '.' && !seen_dot {
            seen_dot = true;
            end = at + c.len_utf8();
        } else if c == ',' {
            // thousands separator: skip it but keep scanning
        } else {
            break;
        }
        first = false;
    }
    let run = &trimmed[start..end];
    if !run.contains(',') {
        return run.parse::<f64>().ok();
    }
    // strip interior thousands separators into a stack buffer; numbers with
    // more than 64 significant bytes don't occur in practice, but fall back
    // to an owned string rather than truncating if they do
    let mut buf = [0u8; 64];
    let mut len = 0usize;
    for &byte in run.as_bytes() {
        if byte == b',' {
            continue;
        }
        if len == buf.len() {
            let candidate: String = run.chars().filter(|c| *c != ',').collect();
            return candidate.parse::<f64>().ok();
        }
        buf[len] = byte;
        len += 1;
    }
    std::str::from_utf8(&buf[..len]).ok()?.parse::<f64>().ok()
}

/// The numeric difference `|a − b|` of Table 2.  Unparseable values yield an
/// infinite distance (treated by the comparison operator as "no similarity").
pub fn numeric_distance(a: &str, b: &str) -> f64 {
    let Some(x) = parse_number(a) else {
        return f64::INFINITY;
    };
    let Some(y) = parse_number(b) else {
        return f64::INFINITY;
    };
    (x - y).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `parse_number` the allocating way — the first number-looking run
    /// copied into a `String` without its thousands separators — kept as the
    /// differential reference.
    fn parse_number_reference(value: &str) -> Option<f64> {
        let trimmed = value.trim();
        if let Ok(v) = trimmed.parse::<f64>() {
            return Some(v);
        }
        let start = trimmed.find(|c: char| c.is_ascii_digit() || c == '-' || c == '+')?;
        let mut run = String::new();
        let mut seen_dot = false;
        for (i, c) in trimmed[start..].chars().enumerate() {
            if c.is_ascii_digit() || (i == 0 && (c == '-' || c == '+')) {
                run.push(c);
            } else if c == '.' && !seen_dot {
                seen_dot = true;
                run.push(c);
            } else if c != ',' {
                break;
            }
        }
        run.parse::<f64>().ok()
    }

    #[test]
    fn parses_plain_numbers() {
        assert_eq!(parse_number("42"), Some(42.0));
        assert_eq!(parse_number("-3.5"), Some(-3.5));
        assert_eq!(parse_number(" 7.25 "), Some(7.25));
        assert_eq!(parse_number("1e3"), Some(1000.0));
    }

    #[test]
    fn parses_embedded_numbers() {
        assert_eq!(parse_number("1998."), Some(1998.0));
        assert_eq!(parse_number("pop: 3,500,000 people"), Some(3_500_000.0));
        assert_eq!(parse_number("42 km"), Some(42.0));
    }

    #[test]
    fn rejects_non_numbers() {
        assert_eq!(parse_number("hello"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number("---"), None);
    }

    #[test]
    fn distance_is_absolute_difference() {
        assert_eq!(numeric_distance("10", "4"), 6.0);
        assert_eq!(numeric_distance("4", "10"), 6.0);
        assert_eq!(numeric_distance("3.5", "3.5"), 0.0);
        assert!(numeric_distance("ten", "4").is_infinite());
    }

    proptest! {
        #[test]
        fn distance_is_symmetric_and_nonnegative(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let d1 = numeric_distance(&a.to_string(), &b.to_string());
            let d2 = numeric_distance(&b.to_string(), &a.to_string());
            prop_assert!((d1 - d2).abs() < 1e-9);
            prop_assert!(d1 >= 0.0);
        }

        #[test]
        fn identical_numbers_have_zero_distance(a in -1e6f64..1e6) {
            prop_assert_eq!(numeric_distance(&a.to_string(), &a.to_string()), 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The stack-buffer parser answers every input like the allocating
        /// one, and the distance — which parses `b` only where `a` parsed —
        /// like the distance that parsed both: plain and embedded numbers,
        /// signs, exponents, thousands separators (interior, leading,
        /// trailing, beyond the 64-byte buffer), non-ASCII, empty.
        #[test]
        fn parse_number_equals_the_allocating_parser(
            soup in "[0-9,.eE+ -]{0,12}",
            noise in ".{0,6}",
            shape in 0usize..9,
            whole in 0u64..10_000_000_000,
            fraction in 0u32..1000,
        ) {
            let grouped = |n: u64| {
                let digits = n.to_string();
                let mut out = String::new();
                for (i, c) in digits.chars().enumerate() {
                    if i > 0 && (digits.len() - i).is_multiple_of(3) {
                        out.push(',');
                    }
                    out.push(c);
                }
                out
            };
            let text = match shape {
                0 => soup.clone(),
                1 => format!("{whole}.{fraction}"),
                2 => format!("pop: {} people", grouped(whole)),
                3 => format!("{noise}-{}.{fraction}{noise}", grouped(whole)),
                4 => format!(" {whole} km"),
                5 => format!("{},,{fraction},", grouped(whole)),
                6 => format!("{noise}{soup}"),
                7 => format!("x{}", "1,".repeat(whole as usize % 80)),
                _ => format!("{whole}e{}", fraction % 12),
            };
            let parsed = parse_number(&text);
            let expected = parse_number_reference(&text);
            prop_assert_eq!(parsed.map(f64::to_bits), expected.map(f64::to_bits), "{:?}", text);
            let other = if fraction % 3 == 0 { soup } else { grouped(whole / 7) };
            for (a, b) in [(&text, &other), (&other, &text)] {
                let expected = match (parse_number_reference(a), parse_number_reference(b)) {
                    (Some(x), Some(y)) => (x - y).abs(),
                    _ => f64::INFINITY,
                };
                prop_assert_eq!(numeric_distance(a, b).to_bits(), expected.to_bits());
            }
        }
    }
}
