//! Error type for the entity model.

use std::fmt;

/// Errors raised while building data sources or reference links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntityError {
    /// An entity with the same identifier was added twice to a data source.
    DuplicateEntity(String),
    /// A reference link points at an entity that is not part of the source.
    UnknownEntity {
        /// Identifier of the missing entity.
        id: String,
        /// Name of the data source that was searched.
        source: String,
    },
    /// A tabular file could not be parsed.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Something `tabular::to_string` cannot write so that
    /// `tabular::parse_str` reads it back unchanged.
    Unwritable(String),
}

impl fmt::Display for EntityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityError::DuplicateEntity(id) => write!(f, "duplicate entity id: {id}"),
            EntityError::UnknownEntity { id, source } => {
                write!(f, "entity {id} is not part of data source {source}")
            }
            EntityError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            EntityError::Unwritable(what) => {
                write!(f, "cannot write {what} as delimited text")
            }
        }
    }
}

impl std::error::Error for EntityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            EntityError::DuplicateEntity("x".into()).to_string(),
            "duplicate entity id: x"
        );
        assert_eq!(
            EntityError::UnknownEntity {
                id: "a".into(),
                source: "cora".into()
            }
            .to_string(),
            "entity a is not part of data source cora"
        );
        assert!(EntityError::Parse {
            line: 3,
            message: "bad row".into()
        }
        .to_string()
        .contains("line 3"));
    }
}
