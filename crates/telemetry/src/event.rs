//! Event model: levels, field values, and the structured event record.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Severity / verbosity levels, most severe first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Off = 0,
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub(crate) fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parses the `HQNN_LOG` syntax: `off|error|warn|info|debug|trace`.
impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected off|error|warn|info|debug|trace)"
            )),
        }
    }
}

/// A dynamically-typed event field.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_from_field {
    ($($t:ty => $variant:ident ($conv:expr)),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::$variant($conv(v)) }
        }
    )*};
}

impl_from_field! {
    u64 => U64(|v| v),
    u32 => U64(|v: u32| v as u64),
    usize => U64(|v: usize| v as u64),
    i64 => I64(|v| v),
    i32 => I64(|v: i32| v as i64),
    f64 => F64(|v| v),
    f32 => F64(|v: f32| v as f64),
    bool => Bool(|v| v),
    String => Str(|v| v),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One structured telemetry record.
///
/// Serializes to a *flat* JSON object so JSONL logs stay grep- and
/// jq-friendly: `{"ts_us":1234,"level":"info","event":"nn.epoch","epoch":3,…}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since process start.
    pub ts_us: u64,
    pub level: Level,
    /// Event name, dot-namespaced by subsystem (`qsim.circuit`, `nn.epoch`,
    /// `search.combo`, …).
    pub name: String,
    /// Causal ID of the span this event belongs to (its own ID for `span`
    /// completion events), or `None` outside every span. Serialized as a
    /// 16-digit hex string — JSON consumers (jq, Python) lose u64 precision
    /// past 2^53. Absent in pre-causal-ID logs, hence optional.
    pub span_id: Option<u64>,
    /// Causal ID of the owning span's parent (`span` events only; `None`
    /// for root spans and in pre-causal-ID logs).
    pub parent_id: Option<u64>,
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Renders `name key=value key=value` for console output.
    pub fn human_readable(&self) -> String {
        let mut out = self.name.clone();
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

impl Serialize for FieldValue {
    fn to_content(&self) -> Content {
        match self {
            FieldValue::U64(v) => Content::U64(*v),
            FieldValue::I64(v) => Content::I64(*v),
            FieldValue::F64(v) => Content::F64(*v),
            FieldValue::Bool(v) => Content::Bool(*v),
            FieldValue::Str(v) => Content::Str(v.clone()),
        }
    }
}

impl Deserialize for FieldValue {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::U64(v) => Ok(FieldValue::U64(*v)),
            Content::I64(v) => Ok(FieldValue::I64(*v)),
            Content::F64(v) => Ok(FieldValue::F64(*v)),
            Content::Bool(v) => Ok(FieldValue::Bool(*v)),
            Content::Str(v) => Ok(FieldValue::Str(v.clone())),
            other => Err(DeError(format!(
                "expected scalar field value, found {}",
                other.kind()
            ))),
        }
    }
}

/// Renders a causal ID as the fixed-width hex form used on the wire.
pub(crate) fn format_span_id(id: u64) -> String {
    format!("{id:016x}")
}

fn parse_span_id(raw: &str) -> Result<u64, DeError> {
    u64::from_str_radix(raw, 16).map_err(|e| DeError(format!("invalid span id {raw:?}: {e}")))
}

impl Serialize for Event {
    fn to_content(&self) -> Content {
        let mut entries = Vec::with_capacity(self.fields.len() + 5);
        entries.push(("ts_us".to_string(), Content::U64(self.ts_us)));
        entries.push((
            "level".to_string(),
            Content::Str(self.level.as_str().to_string()),
        ));
        entries.push(("event".to_string(), Content::Str(self.name.clone())));
        if let Some(id) = self.span_id {
            entries.push(("span_id".to_string(), Content::Str(format_span_id(id))));
        }
        if let Some(id) = self.parent_id {
            entries.push(("parent_id".to_string(), Content::Str(format_span_id(id))));
        }
        for (k, v) in &self.fields {
            entries.push((k.clone(), v.to_content()));
        }
        Content::Map(entries)
    }
}

impl Deserialize for Event {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let entries = c.as_map("Event")?;
        let mut ts_us = None;
        let mut level = None;
        let mut name = None;
        let mut span_id = None;
        let mut parent_id = None;
        let mut fields = Vec::new();
        for (k, v) in entries {
            match k.as_str() {
                "ts_us" => ts_us = Some(u64::from_content(v)?),
                "level" => {
                    let s = String::from_content(v)?;
                    level = Some(s.parse::<Level>().map_err(DeError::custom)?);
                }
                "event" => name = Some(String::from_content(v)?),
                // Optional for backward compatibility: logs written before
                // causal IDs existed simply leave both as `None`.
                "span_id" => span_id = Some(parse_span_id(&String::from_content(v)?)?),
                "parent_id" => parent_id = Some(parse_span_id(&String::from_content(v)?)?),
                _ => fields.push((k.clone(), FieldValue::from_content(v)?)),
            }
        }
        Ok(Event {
            ts_us: ts_us.ok_or_else(|| DeError::custom("missing `ts_us`"))?,
            level: level.ok_or_else(|| DeError::custom("missing `level`"))?,
            name: name.ok_or_else(|| DeError::custom("missing `event`"))?,
            span_id,
            parent_id,
            fields,
        })
    }
}
