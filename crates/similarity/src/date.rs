//! Date distance: the difference between two dates in days (Table 2).
//!
//! Dates are parsed from ISO-8601 (`2012-08-01`, optionally with a trailing
//! time component), from `YYYY/MM/DD`, and from bare years (`1998`), which is
//! how publication dates appear in the Cora data set.  The conversion to a day
//! number uses the proleptic Gregorian civil-date algorithm of Howard Hinnant,
//! so no external date crate is needed.

/// A parsed calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Date {
    /// Year (proleptic Gregorian).
    pub year: i32,
    /// Month 1-12.
    pub month: u32,
    /// Day of month 1-31.
    pub day: u32,
}

impl Date {
    /// Days since the civil epoch 1970-01-01 (may be negative).
    pub fn days_from_epoch(&self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }
}

/// Converts a civil date to days since 1970-01-01 (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = y as i64 - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Parses a date from ISO-8601, `YYYY/MM/DD`, `YYYY-MM`, or a bare year.
/// A bare year or year-month is completed to January respectively day 1.
/// Allocation-free.
pub fn parse_date(value: &str) -> Option<Date> {
    let trimmed = value.trim();
    // strip a time component, if any
    let date_part = trimmed.split(['T', ' ']).next().unwrap_or(trimmed);
    let mut parts = date_part.split(['-', '/']).filter(|s| !s.is_empty());
    let (first, second, third) = (parts.next()?, parts.next(), parts.next());
    if parts.next().is_some() {
        return None;
    }
    let year = first.parse::<i32>().ok()?;
    let (month, day) = match (second, third) {
        (Some(month), Some(day)) => (month.parse::<u32>().ok()?, day.parse::<u32>().ok()?),
        (Some(month), None) => (month.parse::<u32>().ok()?, 1),
        _ => {
            if !(0..=9999).contains(&year) || first.len() != 4 {
                return None;
            }
            (1, 1)
        }
    };
    if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
        return None;
    }
    Some(Date { year, month, day })
}

/// The distance between two dates in days (Table 2).  Unparseable values yield
/// an infinite distance.
pub fn date_distance(a: &str, b: &str) -> f64 {
    let Some(da) = parse_date(a) else {
        return f64::INFINITY;
    };
    let Some(db) = parse_date(b) else {
        return f64::INFINITY;
    };
    (da.days_from_epoch() - db.days_from_epoch()).abs() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating parser `parse_date` replaced, kept as the differential
    /// reference.
    fn parse_date_reference(value: &str) -> Option<Date> {
        let trimmed = value.trim();
        let date_part = trimmed.split(['T', ' ']).next().unwrap_or(trimmed);
        let parts: Vec<&str> = date_part
            .split(['-', '/'])
            .filter(|s| !s.is_empty())
            .collect();
        let (year, month, day) = match parts.len() {
            1 => {
                let y = parts[0].parse::<i32>().ok()?;
                if !(0..=9999).contains(&y) || parts[0].len() != 4 {
                    return None;
                }
                (y, 1, 1)
            }
            2 => {
                let y = parts[0].parse::<i32>().ok()?;
                let m = parts[1].parse::<u32>().ok()?;
                (y, m, 1)
            }
            3 => {
                let y = parts[0].parse::<i32>().ok()?;
                let m = parts[1].parse::<u32>().ok()?;
                let d = parts[2].parse::<u32>().ok()?;
                (y, m, d)
            }
            _ => return None,
        };
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    #[test]
    fn parses_iso_dates() {
        assert_eq!(
            parse_date("2012-08-01"),
            Some(Date {
                year: 2012,
                month: 8,
                day: 1
            })
        );
        assert_eq!(
            parse_date("2012-08-01T12:30:00"),
            Some(Date {
                year: 2012,
                month: 8,
                day: 1
            })
        );
        assert_eq!(
            parse_date("1998/05/20"),
            Some(Date {
                year: 1998,
                month: 5,
                day: 20
            })
        );
    }

    #[test]
    fn parses_partial_dates() {
        assert_eq!(
            parse_date("1998"),
            Some(Date {
                year: 1998,
                month: 1,
                day: 1
            })
        );
        assert_eq!(
            parse_date("1998-07"),
            Some(Date {
                year: 1998,
                month: 7,
                day: 1
            })
        );
    }

    #[test]
    fn rejects_invalid_dates() {
        assert_eq!(parse_date("not a date"), None);
        assert_eq!(parse_date("2001-13-01"), None);
        assert_eq!(parse_date("2001-02-30"), None);
        assert_eq!(parse_date("20010101"), None);
        assert_eq!(parse_date(""), None);
        assert_eq!(parse_date("42"), None);
    }

    #[test]
    fn epoch_reference_points() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
    }

    #[test]
    fn leap_years_are_respected() {
        assert_eq!(parse_date("2000-02-29").map(|d| d.day), Some(29));
        assert_eq!(parse_date("1900-02-29"), None);
        assert_eq!(parse_date("2004-02-29").map(|d| d.day), Some(29));
    }

    #[test]
    fn distance_in_days() {
        assert_eq!(date_distance("2012-08-01", "2012-08-01"), 0.0);
        assert_eq!(date_distance("2012-08-01", "2012-08-11"), 10.0);
        assert_eq!(date_distance("2012-08-11", "2012-08-01"), 10.0);
        assert_eq!(date_distance("2000-01-01", "2001-01-01"), 366.0);
        assert!(date_distance("soon", "2012-08-01").is_infinite());
    }

    #[test]
    fn year_distance_for_movie_disambiguation() {
        // movies sharing a title but produced in different years: the
        // LinkedMDB corner case of Section 6.2
        assert!(date_distance("1960", "2004") > 15000.0);
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(
            y1 in 1900i32..2100, m1 in 1u32..13, d1 in 1u32..29,
            y2 in 1900i32..2100, m2 in 1u32..13, d2 in 1u32..29,
        ) {
            let a = format!("{y1:04}-{m1:02}-{d1:02}");
            let b = format!("{y2:04}-{m2:02}-{d2:02}");
            prop_assert_eq!(date_distance(&a, &b), date_distance(&b, &a));
            prop_assert!(date_distance(&a, &b) >= 0.0);
        }

        #[test]
        fn consecutive_days_differ_by_one(y in 1900i32..2100, m in 1u32..13, d in 1u32..28) {
            let a = format!("{y:04}-{m:02}-{d:02}");
            let b = format!("{y:04}-{m:02}-{:02}", d + 1);
            prop_assert_eq!(date_distance(&a, &b), 1.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The allocation-free parser answers every input like the parser it
        /// replaced: full, partial and bare-year dates with either separator,
        /// trailing time components, wrong arity, out-of-range fields, signs,
        /// non-ASCII, empty.
        #[test]
        fn parse_date_equals_the_allocating_parser(
            soup in "[0-9/T :+-]{0,12}",
            noise in ".{0,6}",
            shape in 0usize..10,
            y in -50i32..10500,
            m in 0u32..15,
            d in 0u32..34,
        ) {
            let text = match shape {
                0 => soup.clone(),
                1 => format!("{y:04}-{m:02}-{d:02}"),
                2 => format!("{y:04}/{m:02}/{d:02}T12:30:00"),
                3 => format!(" {y:04}-{m:02}-{d:02} 12:30 "),
                4 => format!("{y:04}-{m}"),
                5 => format!("{y:04}"),
                6 => format!("{y}-{m}-{d}-{m}"),
                7 => format!("{y:04}-{m:02}-{d:02}{noise}"),
                8 => format!("{noise}{y:04}-{m:02}"),
                _ => format!("{y:04}--{m:02}/{soup}"),
            };
            prop_assert_eq!(parse_date(&text), parse_date_reference(&text), "{:?}", text);
            // the distance parses `b` only where `a` parsed: same result
            let other = if d % 3 == 0 { soup } else { format!("{:04}-{:02}-01", y / 2 + 1000, m % 12 + 1) };
            for (a, b) in [(&text, &other), (&other, &text)] {
                let expected = match (parse_date_reference(a), parse_date_reference(b)) {
                    (Some(a), Some(b)) => (a.days_from_epoch() - b.days_from_epoch()).abs() as f64,
                    _ => f64::INFINITY,
                };
                prop_assert_eq!(date_distance(a, b).to_bits(), expected.to_bits());
            }
        }
    }
}
