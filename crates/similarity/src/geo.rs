//! Geographic distance between two coordinate values.
//!
//! Values are parsed from the formats commonly found in Linked Data:
//! `"52.52 13.40"`, `"52.52,13.40"` and WKT points `"POINT(13.40 52.52)"`
//! (note that WKT uses longitude-first order).  The distance is the haversine
//! great-circle distance in kilometres.

/// Mean earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Parses a coordinate value into `(latitude, longitude)` degrees.
///
/// Allocation-free: most values a geographic comparison meets on real data
/// are not coordinates at all, so failing must be cheap.
pub fn parse_point(value: &str) -> Option<(f64, f64)> {
    let trimmed = value.trim();
    let head = &trimmed.as_bytes()[..trimmed.len().min(5)];
    let wkt = if head.is_ascii() {
        head.eq_ignore_ascii_case(b"POINT")
    } else {
        // a non-ASCII letter can upper-case to an ASCII one ("poınt"), so
        // only the allocating conversion knows
        trimmed.to_uppercase().starts_with("POINT")
    };
    if wkt {
        let inner = trimmed.get(trimmed.find('(')? + 1..trimmed.rfind(')')?)?;
        let (lon, lat) = two_numbers(inner.split_whitespace())?;
        return validate(lat, lon);
    }
    let (lat, lon) = two_numbers(
        trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty()),
    )?;
    validate(lat, lon)
}

/// The two numbers `parts` consists of; `None` unless there are exactly two
/// parts and both parse.
fn two_numbers<'a>(mut parts: impl Iterator<Item = &'a str>) -> Option<(f64, f64)> {
    let (first, second) = (parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    Some((first.parse().ok()?, second.parse().ok()?))
}

fn validate(lat: f64, lon: f64) -> Option<(f64, f64)> {
    if (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) {
        Some((lat, lon))
    } else {
        None
    }
}

/// Haversine great-circle distance in kilometres between two coordinate pairs.
fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (lat1, lon1) = (a.0.to_radians(), a.1.to_radians());
    let (lat2, lon2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

/// Geographic distance in kilometres between two coordinate strings.
/// Unparseable values yield an infinite distance.
pub fn geographic_distance(a: &str, b: &str) -> f64 {
    let Some(pa) = parse_point(a) else {
        return f64::INFINITY;
    };
    let Some(pb) = parse_point(b) else {
        return f64::INFINITY;
    };
    haversine_km(pa, pb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating parser `parse_point` replaced, kept as the differential
    /// reference.  One deliberate difference: it sliced `(`..`)` unchecked
    /// and panicked on a `)` before the first `(`; the guard below is what
    /// the new parser answers there.
    fn parse_point_reference(value: &str) -> Option<(f64, f64)> {
        let trimmed = value.trim();
        let upper = trimmed.to_uppercase();
        if upper.starts_with("POINT") {
            let (open, close) = (trimmed.find('(')? + 1, trimmed.rfind(')')?);
            if open > close {
                return None;
            }
            let parts: Vec<&str> = trimmed[open..close].split_whitespace().collect();
            if parts.len() == 2 {
                let lon = parts[0].parse::<f64>().ok()?;
                let lat = parts[1].parse::<f64>().ok()?;
                return validate(lat, lon);
            }
            return None;
        }
        let parts: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .collect();
        if parts.len() == 2 {
            let lat = parts[0].parse::<f64>().ok()?;
            let lon = parts[1].parse::<f64>().ok()?;
            return validate(lat, lon);
        }
        None
    }

    #[test]
    fn parses_space_and_comma_separated() {
        assert_eq!(parse_point("52.52 13.40"), Some((52.52, 13.40)));
        assert_eq!(parse_point("52.52,13.40"), Some((52.52, 13.40)));
        assert_eq!(parse_point(" 52.52 , 13.40 "), Some((52.52, 13.40)));
    }

    #[test]
    fn parses_wkt_points_lon_first() {
        assert_eq!(parse_point("POINT(13.40 52.52)"), Some((52.52, 13.40)));
        assert_eq!(parse_point("Point (13.40 52.52)"), Some((52.52, 13.40)));
    }

    #[test]
    fn rejects_invalid_coordinates() {
        assert_eq!(parse_point("abc"), None);
        assert_eq!(parse_point("120.0 200.0"), None);
        assert_eq!(parse_point("1 2 3"), None);
        assert_eq!(parse_point(""), None);
    }

    #[test]
    fn wkt_detection_survives_case_mapping_and_hostile_parentheses() {
        // dotless ı upper-cases to an ASCII I: still a WKT point
        assert_eq!(parse_point("poınt(13.4 52.5)"), Some((52.5, 13.4)));
        assert_eq!(parse_point("ſ 1"), None);
        // a WKT prefix never falls through to the plain-pair format
        assert_eq!(parse_point("POINT 13.4 52.5"), None);
        assert_eq!(parse_point("point)13.4 52.5("), None);
        assert_eq!(parse_point("POINT()"), None);
        assert_eq!(parse_point("POIN"), None);
    }

    #[test]
    fn berlin_to_paris_is_about_878_km() {
        let d = geographic_distance("52.5200 13.4050", "48.8566 2.3522");
        assert!((d - 878.0).abs() < 10.0, "got {d}");
    }

    #[test]
    fn identical_points_have_zero_distance() {
        assert_eq!(geographic_distance("52.5 13.4", "52.5 13.4"), 0.0);
    }

    #[test]
    fn unparseable_points_are_infinite() {
        assert!(geographic_distance("nowhere", "52.5 13.4").is_infinite());
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let d = haversine_km((0.0, 0.0), (0.0, 180.0));
        assert!((d - std::f64::consts::PI * 6371.0).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn haversine_is_symmetric_and_nonnegative(
            lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
            lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
        ) {
            let d1 = haversine_km((lat1, lon1), (lat2, lon2));
            let d2 = haversine_km((lat2, lon2), (lat1, lon1));
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-6);
            // no two points on earth are farther apart than half the circumference
            prop_assert!(d1 <= std::f64::consts::PI * 6371.0 + 1e-6);
        }

        #[test]
        fn parse_round_trip(lat in -89.0f64..89.0, lon in -179.0f64..179.0) {
            let text = format!("{lat} {lon}");
            let parsed = parse_point(&text).unwrap();
            prop_assert!((parsed.0 - lat).abs() < 1e-9);
            prop_assert!((parsed.1 - lon).abs() < 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The allocation-free parser answers every input like the parser it
        /// replaced: WKT in any case (and through non-ASCII case mapping),
        /// comma / whitespace separators, wrong arity, out-of-range and
        /// unparseable numbers, stray parentheses, non-ASCII, empty.
        #[test]
        fn parse_point_equals_the_allocating_parser(
            soup in "[pPoOıiInNtTſ(), \t.0-9eE+-]{0,14}",
            noise in ".{0,6}",
            shape in 0usize..10,
            x in -200.0f64..200.0,
            y in -100.0f64..100.0,
            third in 0u32..3,
        ) {
            let prefix = ["POINT", "point", "Point", "pOiNt", "poınt", "POINT ", " point  "];
            let text = match shape {
                0 => soup.clone(),
                1 => format!("{}({x} {y})", prefix[third as usize % prefix.len()]),
                2 => format!("{}({x}  {y}){noise}", prefix[(x.abs() as usize) % prefix.len()]),
                3 => format!("{y} {x}"),
                4 => format!(" {y},{x} "),
                5 => format!("{y} , {x}\t"),
                6 => format!("{y} {x} {third}"),
                7 => format!("{noise}{y} {x}"),
                8 => format!("{}{soup}", prefix[(y.abs() as usize) % prefix.len()]),
                _ => format!("{noise}{soup}"),
            };
            prop_assert_eq!(parse_point(&text), parse_point_reference(&text), "{:?}", text);
            // the distance parses `b` only where `a` parsed: same result
            let other = if third == 0 { soup } else { format!("{} {}", y / 2.0, x / 2.0) };
            for (a, b) in [(&text, &other), (&other, &text)] {
                let expected = match (parse_point_reference(a), parse_point_reference(b)) {
                    (Some(a), Some(b)) => haversine_km(a, b),
                    _ => f64::INFINITY,
                };
                prop_assert_eq!(geographic_distance(a, b).to_bits(), expected.to_bits());
            }
        }
    }
}
