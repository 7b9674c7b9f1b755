//! Offline shim for the subset of `serde` used by this workspace.
//!
//! The design collapses serde's visitor-based data model into one owned
//! [`value::Value`] tree (the shapes JSON can express). `Serialize` builds a
//! `Value`; `Deserialize` consumes one. The real trait signatures are kept —
//! `fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error>` —
//! and the companion `serde_derive` shim provides `#[derive(Serialize,
//! Deserialize)]` for named-field structs. The field types implemented
//! below are the ones the workspace's JSON records hold: `f64`, `String`,
//! `Vec` and string-keyed `BTreeMap` both ways, plus `u64` and string-keyed
//! `HashMap` on the deserializing side.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// A type that can be serialized into any [`Serializer`].
pub trait Serialize {
    /// Serializes `self`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for serialized data.
///
/// Unlike real serde there is a single required method taking an owned
/// [`value::Value`].
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Serialization error type.
    type Error;

    /// Consumes an owned value tree.
    fn serialize_value(self, value: value::Value) -> Result<Self::Ok, Self::Error>;
}

/// A type that can be deserialized from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes a value.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Marker for types deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// A source of deserialized data: hands out one owned [`value::Value`].
pub trait Deserializer<'de>: Sized {
    /// Deserialization error type.
    type Error: de::Error;

    /// Takes the underlying value tree.
    fn take_value(self) -> Result<value::Value, Self::Error>;
}

/// Deserialization error plumbing.
pub mod de {
    /// Trait every [`super::Deserializer`] error implements, so generated
    /// and handwritten code can construct errors generically.
    pub trait Error: Sized {
        /// Builds an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

/// The owned value model plus the glue used by derived code.
pub mod value {
    use super::{de, Deserialize, Deserializer, Serialize, Serializer};
    use std::convert::Infallible;
    use std::fmt;

    /// An owned tree covering every shape JSON can express.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Non-negative integer.
        U64(u64),
        /// Negative integer.
        I64(i64),
        /// Floating-point number.
        F64(f64),
        /// String.
        Str(String),
        /// Array.
        Seq(Vec<Value>),
        /// Object; insertion-ordered.
        Map(Vec<(String, Value)>),
    }

    /// Error produced when a [`Value`] does not match the requested shape.
    #[derive(Clone, Debug)]
    pub struct Error(pub String);

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl de::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// [`Serializer`] producing an owned [`Value`]; cannot fail.
    struct ValueSerializer;

    impl Serializer for ValueSerializer {
        type Ok = Value;
        type Error = Infallible;

        fn serialize_value(self, value: Value) -> Result<Value, Infallible> {
            Ok(value)
        }
    }

    /// [`Deserializer`] reading from an owned [`Value`].
    struct ValueDeserializer {
        value: Value,
    }

    impl<'de> Deserializer<'de> for ValueDeserializer {
        type Error = Error;

        fn take_value(self) -> Result<Value, Error> {
            Ok(self.value)
        }
    }

    /// Serializes any [`Serialize`] type into a [`Value`].
    pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
        match v.serialize(ValueSerializer) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// Deserializes any [`Deserialize`] type from a [`Value`].
    pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
        T::deserialize(ValueDeserializer { value })
    }

    /// Removes the named field from an object's entry list; used by derived
    /// struct deserializers.
    pub fn take_field(map: &mut Vec<(String, Value)>, name: &str) -> Result<Value, Error> {
        match map.iter().position(|(k, _)| k == name) {
            Some(i) => Ok(map.remove(i).1),
            None => Err(Error(format!("missing field `{name}`"))),
        }
    }
}

use value::Value;

// ---------------------------------------------------------------------------
// Serialize / Deserialize implementations for the std types this workspace
// serializes.
// ---------------------------------------------------------------------------

impl<'de> Deserialize<'de> for u64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::U64(n) => Ok(n),
            other => Err(<D::Error as de::Error>::custom(format!(
                "expected u64 integer, found {other:?}"
            ))),
        }
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::F64(*self))
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::F64(v) => Ok(v),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            // serde_json writes non-finite floats as null.
            Value::Null => Ok(f64::NAN),
            other => {
                Err(<D::Error as de::Error>::custom(format!("expected float, found {other:?}")))
            }
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.clone()))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Str(s) => Ok(s),
            other => {
                Err(<D::Error as de::Error>::custom(format!("expected string, found {other:?}")))
            }
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Seq(self.iter().map(value::to_value).collect()))
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Seq(items) => items
                .into_iter()
                .map(|v| value::from_value(v).map_err(<D::Error as de::Error>::custom))
                .collect(),
            other => {
                Err(<D::Error as de::Error>::custom(format!("expected array, found {other:?}")))
            }
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Map(
            self.iter().map(|(k, v)| (k.clone(), value::to_value(v))).collect(),
        ))
    }
}

/// Collects a JSON object's entries into any string-keyed map.
fn deserialize_map<'de, D, V, M>(deserializer: D) -> Result<M, D::Error>
where
    D: Deserializer<'de>,
    V: DeserializeOwned,
    M: FromIterator<(String, V)>,
{
    match deserializer.take_value()? {
        Value::Map(entries) => entries
            .into_iter()
            .map(|(k, v)| {
                value::from_value(v).map(|v| (k, v)).map_err(<D::Error as de::Error>::custom)
            })
            .collect(),
        other => Err(<D::Error as de::Error>::custom(format!("expected object, found {other:?}"))),
    }
}

impl<'de, V: DeserializeOwned> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserialize_map(deserializer)
    }
}

impl<'de, V: DeserializeOwned> Deserialize<'de> for HashMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserialize_map(deserializer)
    }
}

#[cfg(test)]
mod tests {
    use super::value::{from_value, to_value, Value};
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(from_value::<u64>(Value::U64(42)).unwrap(), 42);
        assert_eq!(to_value(&-2.5f64), Value::F64(-2.5));
        assert_eq!(from_value::<f64>(Value::I64(-3)).unwrap(), -3.0);
        assert!(from_value::<f64>(Value::Null).unwrap().is_nan());
        assert_eq!(to_value(&"hi".to_string()), Value::Str("hi".into()));
        let v: Vec<String> = from_value(to_value(&vec!["a".to_string(), "b".to_string()])).unwrap();
        assert_eq!(v, ["a", "b"]);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(from_value::<u64>(Value::I64(-1)).is_err());
        assert!(from_value::<u64>(Value::F64(1.5)).is_err());
    }

    #[test]
    fn map_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.5f64);
        m.insert("b".to_string(), 2.5f64);
        let back: BTreeMap<String, f64> = from_value(to_value(&m)).unwrap();
        assert_eq!(back, m);
        let hashed: HashMap<String, f64> = from_value(to_value(&m)).unwrap();
        assert_eq!(hashed, m.into_iter().collect());
    }
}
