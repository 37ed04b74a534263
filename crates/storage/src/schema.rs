//! Relational schemas.

use serde::{Deserialize, Serialize};

use crate::types::{DataType, Value};

/// One column of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

/// An ordered set of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Sum of physical column widths — the row footprint used by transfer
    /// cost estimates.
    pub fn row_bytes(&self) -> usize {
        self.fields.iter().map(|f| f.dtype.physical_width()).sum()
    }

    /// A schema containing the named subset of columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Option<Schema> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Option<Vec<_>>>()?;
        Some(Schema { fields })
    }

    /// Whether [`crate::table::TableBuilder`] stores `row` as given: one
    /// value per column, NULL in any column, a string only in a VARCHAR
    /// column, and neither a string nor a decimal in an INT or DATE column.
    pub fn admits(&self, row: &[Value]) -> bool {
        row.len() == self.len()
            && self
                .fields
                .iter()
                .zip(row)
                .all(|(f, v)| match (f.dtype, v) {
                    (_, Value::Null) => true,
                    (DataType::Varchar, v) => matches!(v, Value::Str(_)),
                    (DataType::Int | DataType::Date, v) => {
                        matches!(v, Value::Int(_) | Value::Date(_))
                    }
                    (DataType::Decimal { .. }, v) => !matches!(v, Value::Str(_)),
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_ish() -> Schema {
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_quantity", DataType::Decimal { scale: 2 }),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_returnflag", DataType::Varchar),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = lineitem_ish();
        assert_eq!(s.index_of("l_shipdate"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(
            s.field("l_quantity").unwrap().dtype,
            DataType::Decimal { scale: 2 }
        );
    }

    #[test]
    fn row_bytes_sums_physical_widths() {
        assert_eq!(lineitem_ish().row_bytes(), 8 + 8 + 4 + 4);
    }

    #[test]
    fn projection_reorders() {
        let s = lineitem_ish();
        let p = s.project(&["l_shipdate", "l_orderkey"]).unwrap();
        assert_eq!(p.fields[0].name, "l_shipdate");
        assert_eq!(p.fields[1].name, "l_orderkey");
        assert!(s.project(&["ghost"]).is_none());
    }

    #[test]
    fn admits_what_the_builder_stores_as_given() {
        let s = lineitem_ish();
        let dec = Value::Decimal {
            unscaled: 5,
            scale: 2,
        };
        let flag = || Value::Str("R".into());
        let row = |v: [Value; 4]| s.admits(&v);
        assert!(row([Value::Int(1), dec.clone(), Value::Date(3), flag()]));
        assert!(row([Value::Null, Value::Null, Value::Null, Value::Null]));
        // Integers and dates stand for each other; a decimal column scales
        // an integer.
        assert!(row([Value::Date(1), Value::Int(2), Value::Int(3), flag()]));
        assert!(!s.admits(&[Value::Int(1)]), "arity");
        assert!(!row([dec.clone(), dec.clone(), Value::Date(3), flag()]));
        assert!(!row([Value::Int(1), dec.clone(), dec.clone(), flag()]));
        assert!(!row([Value::Int(1), flag(), Value::Date(3), flag()]));
        assert!(!row([flag(), dec.clone(), Value::Date(3), flag()]));
        assert!(!row([Value::Int(1), dec, Value::Date(3), Value::Int(0)]));
    }
}
