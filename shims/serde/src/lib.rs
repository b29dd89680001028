//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors a
//! minimal serde replacement with the same import surface the codebase uses:
//! `use serde::{Serialize, Deserialize}` works both as trait imports and as
//! derive macros (re-exported from the sibling `serde_derive` shim), and the
//! inert `#[serde(skip)]` field attribute is honored.
//!
//! Instead of serde's zero-copy visitor architecture, this shim round-trips
//! every value through a JSON-shaped [`value::Value`] tree. That is slower
//! but behaviorally equivalent for the cache/report/round-trip workloads in
//! this repository, and it keeps the derive macro small enough to write
//! without `syn`/`quote`.

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

use value::{Error, Value};

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i128().ok_or_else(|| Error::custom(concat!("expected integer for ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(Error::custom("expected number")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Box<str> {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Box<str> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        String::from_value(v).map(String::into_boxed_str)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(xs) => xs.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let Value::Array(xs) = v else {
                    return Err(Error::custom("expected array for tuple"));
                };
                let mut it = xs.iter();
                let out = ($({
                    let _ = $n;
                    $t::from_value(it.next().ok_or_else(|| Error::custom("tuple too short"))?)?
                },)+);
                if it.next().is_some() {
                    return Err(Error::custom("tuple too long"));
                }
                Ok(out)
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize + Ord, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Array(xs) = v else {
            return Err(Error::custom("expected array for map"));
        };
        xs.iter().map(<(K, V)>::from_value).collect()
    }
}
