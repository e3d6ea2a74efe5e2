//! A textual DSL for linkage rules with a parser and printer.
//!
//! Learned rules have to be inspectable and editable by humans — the paper
//! emphasises that the operator-tree representation "can be understood and
//! further improved by humans".  The DSL is an s-expression syntax:
//!
//! ```text
//! (min
//!   (compare levenshtein 1 (lowerCase (property "label")) (lowerCase (property "rdfs:label")))
//!   (compare geographic 50 (property "point") (property "coord")))
//! ```
//!
//! * aggregations: `(<max|min|wmean> [:w <weight>] <operator>+)`
//! * comparisons: `(compare <distance> <threshold> [:w <weight>] <source value> <target value>)`
//! * properties: `(property "<name>")`
//! * transformations: `(<transformation name> <value>+)`
//!
//! [`print_rule`] produces the canonical form and [`parse_rule`] accepts it
//! back; `parse_rule(print_rule(r)) == r` for every rule (covered by a
//! property test in the `genlink` crate which generates random rules).

use std::fmt::Write as _;

use linkdisc_similarity::DistanceFunction;
use linkdisc_transform::TransformFunction;

use crate::aggregation::AggregationFunction;
use crate::operators::{SimilarityOperator, ValueOperator};
use crate::rule::LinkageRule;

/// Errors produced by the DSL parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for DslError {}

// ---------------------------------------------------------------------------
// printing
// ---------------------------------------------------------------------------

/// Prints a rule in canonical DSL form (single line).
pub fn print_rule(rule: &LinkageRule) -> String {
    match rule.root() {
        None => "(empty)".to_string(),
        Some(root) => {
            let mut out = String::new();
            print_similarity(root, &mut out);
            out
        }
    }
}

fn print_similarity(op: &SimilarityOperator, out: &mut String) {
    match op {
        SimilarityOperator::Comparison(c) => {
            let _ = write!(out, "(compare {} {}", c.function.name(), c.threshold);
            if c.weight != 1 {
                let _ = write!(out, " :w {}", c.weight);
            }
            out.push(' ');
            print_value(&c.source, out);
            out.push(' ');
            print_value(&c.target, out);
            out.push(')');
        }
        SimilarityOperator::Aggregation(a) => {
            let _ = write!(out, "({}", a.function.name());
            if a.weight != 1 {
                let _ = write!(out, " :w {}", a.weight);
            }
            for child in &a.operators {
                out.push(' ');
                print_similarity(child, out);
            }
            out.push(')');
        }
    }
}

fn print_value(op: &ValueOperator, out: &mut String) {
    match op {
        ValueOperator::Property(p) => {
            let _ = write!(out, "(property \"{}\")", escape(&p.property));
        }
        ValueOperator::Transformation(t) => {
            let _ = write!(out, "({}", t.function.name());
            for child in &t.inputs {
                out.push(' ');
                print_value(child, out);
            }
            out.push(')');
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Symbol(String),
    Str(String),
    Number(f64),
}

struct Lexer<'a> {
    input: &'a str,
    position: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, position: 0 }
    }

    fn error(&self, message: impl Into<String>) -> DslError {
        DslError {
            position: self.position,
            message: message.into(),
        }
    }

    /// The character at the current position, if any.
    fn peek(&self) -> Option<char> {
        self.input[self.position..].chars().next()
    }

    /// Consumes and returns the character at the current position.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.position += c.len_utf8();
        Some(c)
    }

    fn tokenize(mut self) -> Result<Vec<(usize, Token)>, DslError> {
        let mut tokens = Vec::new();
        while let Some(c) = self.peek() {
            let start = self.position;
            if c.is_whitespace() {
                self.bump();
            } else if c == '(' {
                tokens.push((start, Token::Open));
                self.bump();
            } else if c == ')' {
                tokens.push((start, Token::Close));
                self.bump();
            } else if c == '"' {
                self.bump();
                let mut value = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string")),
                        Some('\\') => {
                            let escaped = self.bump();
                            value.push(escaped.ok_or_else(|| self.error("dangling escape"))?);
                        }
                        Some('"') => break,
                        Some(c) => value.push(c),
                    }
                }
                tokens.push((start, Token::Str(value)));
            } else {
                while let Some(c) = self.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == '"' {
                        break;
                    }
                    self.bump();
                }
                let text = &self.input[start..self.position];
                if let Ok(number) = text.parse::<f64>() {
                    tokens.push((start, Token::Number(number)));
                } else {
                    tokens.push((start, Token::Symbol(text.to_string())));
                }
            }
        }
        Ok(tokens)
    }
}

/// Deepest nesting of operators the parser accepts: every `(` of the rule
/// counts, so a comparison under 126 aggregations (its properties at depth
/// 128) is the deepest legal rule.  Parsing, printing, hashing and dropping
/// all recurse once per level, and 128 levels fit a 2 MB thread stack with
/// room to spare.
const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<(usize, Token)>,
    index: usize,
    /// Operators opened and not yet closed.
    depth: usize,
}

impl Parser {
    fn error(&self, message: impl Into<String>) -> DslError {
        let position = self
            .tokens
            .get(self.index)
            .or_else(|| self.tokens.last())
            .map(|(p, _)| *p)
            .unwrap_or(0);
        DslError {
            position,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.index).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.index).map(|(_, t)| t.clone());
        if token.is_some() {
            self.index += 1;
        }
        token
    }

    fn expect_open(&mut self) -> Result<(), DslError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("operators nested deeper than {MAX_NESTING} levels")));
        }
        match self.next() {
            Some(Token::Open) => {
                self.depth += 1;
                Ok(())
            }
            _ => Err(self.error("expected '('")),
        }
    }

    fn expect_close(&mut self) -> Result<(), DslError> {
        match self.next() {
            Some(Token::Close) => {
                self.depth -= 1;
                Ok(())
            }
            _ => Err(self.error("expected ')'")),
        }
    }

    fn expect_symbol(&mut self) -> Result<String, DslError> {
        match self.next() {
            Some(Token::Symbol(s)) => Ok(s),
            _ => Err(self.error("expected a symbol")),
        }
    }

    fn parse_optional_weight(&mut self) -> Result<u32, DslError> {
        if matches!(self.peek(), Some(Token::Symbol(s)) if s == ":w") {
            self.next();
            match self.next() {
                Some(Token::Number(n))
                    if n >= 1.0 && n <= f64::from(u32::MAX) && n.fract() == 0.0 =>
                {
                    Ok(n as u32)
                }
                _ => Err(self.error(format!(
                    "expected an integral weight in 1..={} after :w",
                    u32::MAX
                ))),
            }
        } else {
            Ok(1)
        }
    }

    fn parse_similarity(&mut self) -> Result<SimilarityOperator, DslError> {
        self.expect_open()?;
        let head = self.expect_symbol()?;
        if head == "compare" {
            let function_name = self.expect_symbol()?;
            let function = DistanceFunction::from_name(&function_name)
                .ok_or_else(|| self.error(format!("unknown distance function {function_name}")))?;
            let threshold = match self.next() {
                Some(Token::Number(n)) if n.is_finite() && n >= 0.0 => n,
                _ => return Err(self.error("expected a finite non-negative threshold")),
            };
            let weight = self.parse_optional_weight()?;
            let source = self.parse_value()?;
            let target = self.parse_value()?;
            self.expect_close()?;
            let mut comparison =
                SimilarityOperator::comparison(source, target, function, threshold);
            comparison.set_weight(weight);
            Ok(comparison)
        } else if let Some(function) = AggregationFunction::from_name(&head) {
            let weight = self.parse_optional_weight()?;
            let mut operators = Vec::new();
            while !matches!(self.peek(), Some(Token::Close) | None) {
                operators.push(self.parse_similarity()?);
            }
            self.expect_close()?;
            let mut aggregation = SimilarityOperator::aggregation(function, operators);
            aggregation.set_weight(weight);
            Ok(aggregation)
        } else {
            Err(self.error(format!("unknown similarity operator {head}")))
        }
    }

    fn parse_value(&mut self) -> Result<ValueOperator, DslError> {
        self.expect_open()?;
        let head = self.expect_symbol()?;
        if head == "property" {
            let name = match self.next() {
                Some(Token::Str(s)) => s,
                Some(Token::Symbol(s)) => s,
                _ => return Err(self.error("expected a property name")),
            };
            self.expect_close()?;
            Ok(ValueOperator::property(name))
        } else if let Some(function) = TransformFunction::from_name(&head) {
            let mut inputs = Vec::new();
            while !matches!(self.peek(), Some(Token::Close) | None) {
                inputs.push(self.parse_value()?);
            }
            if inputs.is_empty() {
                return Err(self.error("transformation needs at least one input"));
            }
            self.expect_close()?;
            Ok(ValueOperator::transformation(function, inputs))
        } else {
            Err(self.error(format!("unknown value operator {head}")))
        }
    }
}

/// Parses a rule from its DSL form.  Input nested more than 128 operators
/// deep is rejected with an error at the byte offset of the first `(` past
/// that depth, rather than recursing until the stack overflows.
pub fn parse_rule(input: &str) -> Result<LinkageRule, DslError> {
    let trimmed = input.trim();
    if trimmed == "(empty)" {
        return Ok(LinkageRule::empty());
    }
    let tokens = Lexer::new(trimmed).tokenize()?;
    let mut parser = Parser {
        tokens,
        index: 0,
        depth: 0,
    };
    let root = parser.parse_similarity()?;
    if parser.index != parser.tokens.len() {
        return Err(parser.error("trailing input after rule"));
    }
    Ok(LinkageRule::new(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{aggregation, compare, property, transform};

    fn figure2() -> LinkageRule {
        aggregation(
            AggregationFunction::Min,
            vec![
                compare(
                    transform(TransformFunction::LowerCase, vec![property("label")]),
                    transform(TransformFunction::LowerCase, vec![property("rdfs:label")]),
                    DistanceFunction::Levenshtein,
                    1.0,
                ),
                compare(
                    property("point"),
                    property("coord"),
                    DistanceFunction::Geographic,
                    50.0,
                ),
            ],
        )
        .into()
    }

    #[test]
    fn prints_canonical_form() {
        let text = print_rule(&figure2());
        assert_eq!(
            text,
            "(min (compare levenshtein 1 (lowerCase (property \"label\")) (lowerCase (property \"rdfs:label\"))) (compare geographic 50 (property \"point\") (property \"coord\")))"
        );
    }

    #[test]
    fn round_trips_figure2() {
        let rule = figure2();
        let parsed = parse_rule(&print_rule(&rule)).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn round_trips_weights_and_nesting() {
        let mut inner = compare(
            property("a"),
            property("b"),
            DistanceFunction::Jaccard,
            0.25,
        );
        inner.set_weight(3);
        let mut outer = aggregation(AggregationFunction::WeightedMean, vec![inner]);
        outer.set_weight(2);
        let rule: LinkageRule = aggregation(AggregationFunction::Max, vec![outer]).into();
        let parsed = parse_rule(&print_rule(&rule)).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn round_trips_empty_rule() {
        let rule = LinkageRule::empty();
        assert_eq!(print_rule(&rule), "(empty)");
        assert_eq!(parse_rule("(empty)").unwrap(), rule);
    }

    #[test]
    fn parses_multiline_input() {
        let text = "(min\n  (compare levenshtein 1\n    (property \"label\") (property \"name\"))\n  (compare date 30 (property \"d\") (property \"d\")))";
        let rule = parse_rule(text).unwrap();
        assert_eq!(rule.stats().comparisons, 2);
    }

    #[test]
    fn property_names_with_special_characters_round_trip() {
        let rule: LinkageRule = compare(
            property("rdf:label \"quoted\""),
            property("http://xmlns.com/foaf/0.1/name"),
            DistanceFunction::Levenshtein,
            2.0,
        )
        .into();
        let parsed = parse_rule(&print_rule(&rule)).unwrap();
        assert_eq!(parsed, rule);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_rule("").is_err());
        assert!(parse_rule(
            "(unknownAgg (compare levenshtein 1 (property \"a\") (property \"b\")))"
        )
        .is_err());
        assert!(parse_rule("(compare levenshtein (property \"a\") (property \"b\"))").is_err());
        assert!(parse_rule("(compare levenshtein 1 (property \"a\"))").is_err());
        assert!(
            parse_rule("(min (compare levenshtein 1 (property \"a\") (property \"b\")").is_err()
        );
        assert!(parse_rule("(min) extra").is_err());
        assert!(parse_rule("(compare bogus 1 (property \"a\") (property \"b\"))").is_err());
        assert!(parse_rule("(min (tokenize (property \"a\")))").is_err());
        assert!(parse_rule("(compare levenshtein 1 (tokenize) (property \"b\"))").is_err());
        assert!(parse_rule("(compare levenshtein -1 (property \"a\") (property \"b\"))").is_err());
        // weights are integers in 1..=u32::MAX, never truncated or saturated
        for weight in ["2.5", "1.9999", "4294967296", "1e20", "inf"] {
            let text =
                format!("(compare levenshtein 1 :w {weight} (property \"a\") (property \"b\"))");
            let err = parse_rule(&text).unwrap_err();
            assert!(err.message.contains("integral weight"), "{weight}: {err}");
        }
    }

    /// A symbol holding a character whose UTF-8 bytes include one that,
    /// read alone as a `char`, is whitespace (`à` ends in 0xA0, NBSP) is
    /// an unknown name, not a panic on a split character.
    #[test]
    fn non_ascii_symbols_are_errors() {
        let err =
            parse_rule("(compare levenshteinà 1 (property \"a\") (property \"b\"))").unwrap_err();
        assert!(err.message.contains("levenshteinà"), "{err}");
        let err = parse_rule("(minà)").unwrap_err();
        assert!(err.message.contains("minà"), "{err}");
    }

    #[test]
    fn thresholds_must_be_finite() {
        for threshold in ["inf", "1e400", "NaN"] {
            let text = format!("(compare numeric {threshold} (property \"a\") (property \"b\"))");
            let err = parse_rule(&text).unwrap_err();
            assert!(err.message.contains("finite"), "{threshold}: {err}");
        }
    }

    #[test]
    fn error_positions_point_into_the_input() {
        let err =
            parse_rule("(min (compare nope 1 (property \"a\") (property \"b\")))").unwrap_err();
        assert!(err.position > 0);
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn unbounded_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_rule(&"(min ".repeat(100_000)).unwrap_err();
        // the 129th `(` of "(min (min ..." starts at byte 128 * 5
        assert_eq!(err.position, MAX_NESTING * 5);
        assert!(err.message.contains("nested deeper"), "{err}");
    }

    /// `levels` aggregations around one comparison: `levels + 2` parentheses
    /// deep, counting the comparison and its properties.
    fn nested(levels: usize) -> LinkageRule {
        let mut operator = compare(
            property("a"),
            property("b"),
            DistanceFunction::Equality,
            1.0,
        );
        for _ in 0..levels {
            operator = aggregation(AggregationFunction::Min, vec![operator]);
        }
        operator.into()
    }

    #[test]
    fn a_rule_at_the_nesting_cap_round_trips() {
        let deepest = nested(MAX_NESTING - 2);
        assert_eq!(parse_rule(&print_rule(&deepest)).unwrap(), deepest);
        let too_deep = print_rule(&nested(MAX_NESTING - 1));
        let err = parse_rule(&too_deep).unwrap_err();
        assert_eq!(
            err.position,
            too_deep.match_indices('(').nth(MAX_NESTING).unwrap().0
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_rule("(compare levenshtein 1 (property \"a) (property \"b\"))").is_err());
    }
}
