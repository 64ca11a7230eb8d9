//! Data Conditioning plug-in management (paper §II.F).
//!
//! Plug-ins are created on the **reader** side as source strings, shipped
//! to whichever address space should run them, compiled there, and
//! executed on each matching chunk as it moves. "They can be executed
//! within the address space of either the simulation or analytics, and
//! they can be migrated across address spaces at runtime."

use codelet::Codelet;
use evpath::{FieldValue, Record};

use adios::{ArrayData, LocalBlock, VarValue};

/// Which address space runs the plug-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PluginPlacement {
    /// In the simulation's (writer's) address space — conditioning data
    /// *before* it crosses the transport (e.g. selection shrinks traffic).
    WriterSide,
    /// In the analytics' (reader's) address space.
    ReaderSide,
}

/// A deployable plug-in: the variable it conditions, its source, and
/// where it should run.
#[derive(Debug, Clone, PartialEq)]
pub struct PluginSpec {
    /// Variable name the plug-in applies to.
    pub var: String,
    /// Codelet source (what actually migrates).
    pub source: String,
    /// Current placement.
    pub placement: PluginPlacement,
}

impl PluginSpec {
    /// The same plug-in at a different placement — how migration call
    /// sites (the elastic controller, tests) respell a spec without
    /// repeating its source.
    pub fn with_placement(mut self, placement: PluginPlacement) -> PluginSpec {
        self.placement = placement;
        self
    }

    /// Encode for the deployment channel.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("var", FieldValue::Str(self.var.clone()))
            .with("source", FieldValue::Str(self.source.clone()))
            .with(
                "placement",
                FieldValue::U64(match self.placement {
                    PluginPlacement::WriterSide => 0,
                    PluginPlacement::ReaderSide => 1,
                }),
            )
    }

    /// Decode from the deployment channel.
    pub fn from_record(r: &Record) -> Option<PluginSpec> {
        Some(PluginSpec {
            var: r.get_str("var")?.to_string(),
            source: r.get_str("source")?.to_string(),
            placement: match r.get_u64("placement")? {
                0 => PluginPlacement::WriterSide,
                1 => PluginPlacement::ReaderSide,
                _ => return None,
            },
        })
    }
}

/// A compiled plug-in installed in one address space.
#[derive(Debug)]
pub struct InstalledPlugin {
    /// The spec it was built from.
    pub spec: PluginSpec,
    codelet: Codelet,
}

/// Marker extra attached to every conditioned chunk so the receiving side
/// can tell whether conditioning already happened upstream. This is what
/// makes plug-in **migration seamless**: during the handover step the
/// reader applies its local fallback copy only when the marker is absent,
/// so data is conditioned exactly once no matter which side ran first.
pub const DC_APPLIED_MARKER: &str = "dc_applied";

/// Error applying a plug-in to a chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginError {
    /// Source failed to compile at install time.
    Compile(String),
    /// Runtime failure (budget, type error, ...).
    Run(String),
    /// The plug-in is restricted to 1-D f64 array variables (the
    /// process-group pattern the paper's GTS analytics uses).
    UnsupportedChunk(&'static str),
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::Compile(m) => write!(f, "plug-in failed to compile: {m}"),
            PluginError::Run(m) => write!(f, "plug-in failed at runtime: {m}"),
            PluginError::UnsupportedChunk(m) => write!(f, "unsupported chunk: {m}"),
        }
    }
}

impl std::error::Error for PluginError {}

impl InstalledPlugin {
    /// Compile (the "install" step — this is what dynamic deployment does
    /// on arrival in the target address space).
    pub fn install(spec: PluginSpec) -> Result<InstalledPlugin, PluginError> {
        let codelet =
            Codelet::compile(&spec.source).map_err(|e| PluginError::Compile(e.to_string()))?;
        Ok(InstalledPlugin { spec, codelet })
    }

    /// Condition one chunk of the plug-in's variable: the chunk's data is
    /// exposed to the codelet under the variable's name; the codelet's
    /// emitted field of that name becomes the new chunk data, and any
    /// extra emitted fields come back as metadata `(name, value)` pairs.
    pub fn apply(
        &self,
        value: &VarValue,
    ) -> Result<(VarValue, Vec<(String, VarValue)>), PluginError> {
        let VarValue::Block(block) = value else {
            return Err(PluginError::UnsupportedChunk("scalars are not conditioned"));
        };
        // The codelet reads the chunk in place; a packed wire view is
        // decoded once with one bulk conversion (the caller keeps the
        // zero-copy view if we reject the chunk).
        let decoded;
        let data: &[f64] = match &block.data {
            ArrayData::F64(data) => data,
            ArrayData::Packed(p) if p.dtype() == evpath::ffs::PackedDtype::F64 => {
                decoded = p.to_f64_vec();
                &decoded
            }
            _ => return Err(PluginError::UnsupportedChunk("only f64 arrays supported")),
        };
        let output = self
            .codelet
            .run_column(&self.spec.var, data)
            .map_err(|e| PluginError::Run(e.to_string()))?;

        let mut new_value = None;
        let mut extras = Vec::new();
        for (name, field) in output {
            let as_value = match field {
                FieldValue::F64Array(a) => array_block(ArrayData::F64(a)),
                FieldValue::I64Array(a) => array_block(ArrayData::I64(a)),
                FieldValue::I64(v) => VarValue::Scalar(adios::ScalarValue::I64(v)),
                FieldValue::U64(v) => VarValue::Scalar(adios::ScalarValue::U64(v)),
                FieldValue::F64(v) => VarValue::Scalar(adios::ScalarValue::F64(v)),
                FieldValue::Str(s) => VarValue::Scalar(adios::ScalarValue::Str(s)),
                _ => continue,
            };
            if name == self.spec.var {
                new_value = Some(as_value);
            } else {
                extras.push((name, as_value));
            }
        }
        // Stamp the marker so the peer side never double-conditions.
        extras.push((DC_APPLIED_MARKER.to_string(), VarValue::Scalar(adios::ScalarValue::U64(1))));
        // A plug-in that emits nothing for the variable drops it entirely
        // (maximal reduction, e.g. `summarize`): represent as empty array.
        let new_value = new_value.unwrap_or_else(|| array_block(ArrayData::F64(Vec::new())));
        Ok((new_value, extras))
    }
}

/// A conditioned array as a standalone 1-D block.
fn array_block(data: ArrayData) -> VarValue {
    let n = data.len() as u64;
    VarValue::Block(
        LocalBlock { global_shape: vec![n], offset: vec![0], count: vec![n], data }.validated(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velocity_chunk() -> VarValue {
        VarValue::Block(
            LocalBlock {
                global_shape: vec![6],
                offset: vec![0],
                count: vec![6],
                data: ArrayData::F64(vec![0.1, 1.5, 2.9, 0.4, 1.1, 3.3]),
            }
            .validated(),
        )
    }

    #[test]
    fn spec_roundtrip() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::sampling("velocity", 2),
            placement: PluginPlacement::WriterSide,
        };
        assert_eq!(PluginSpec::from_record(&spec.to_record()), Some(spec.clone()));
    }

    #[test]
    fn bounding_box_plugin_filters_chunk() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::bounding_box("velocity", 1.0, 3.0),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let (value, extras) = p.apply(&velocity_chunk()).unwrap();
        let VarValue::Block(b) = value else { panic!() };
        assert_eq!(b.data.as_f64(), &[1.5, 2.9, 1.1]);
        assert!(extras.iter().any(|(n, v)| n == "dc_selected"
            && matches!(v, VarValue::Scalar(adios::ScalarValue::I64(3)))));
    }

    #[test]
    fn summarize_plugin_drops_raw_data() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::summarize("velocity"),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let (value, extras) = p.apply(&velocity_chunk()).unwrap();
        let VarValue::Block(b) = value else { panic!() };
        assert_eq!(b.num_elements(), 0, "raw data replaced by empty block");
        assert!(extras.iter().any(|(n, _)| n == "dc_mean"));
    }

    #[test]
    fn emit_i64_output_is_kept_as_an_i64_block() {
        // Both as the conditioned variable and as an extra.
        let spec = PluginSpec {
            var: "velocity".into(),
            source: r#"
                let v = get_f64("velocity");
                let bins = int_array();
                for i in 0..len(v) { push(bins, int(floor(v[i]))); }
                emit_i64("velocity", bins);
                let odd = int_array();
                push(odd, 1);
                push(odd, 5);
                emit_i64("odd_idx", odd);
            "#
            .into(),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let (value, extras) = p.apply(&velocity_chunk()).unwrap();
        let VarValue::Block(b) = value else { panic!("conditioned variable is a block") };
        assert!(matches!(&b.data, ArrayData::I64(v) if v == &[0, 1, 2, 0, 1, 3]));
        assert_eq!(b.count, vec![6]);
        let (_, odd) = extras.iter().find(|(n, _)| n == "odd_idx").expect("i64 extra kept");
        let VarValue::Block(odd) = odd else { panic!("i64 extra is a block") };
        assert!(matches!(&odd.data, ArrayData::I64(v) if v == &[1, 5]));
    }

    #[test]
    fn packed_chunks_condition_like_owned_ones() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::bounding_box("velocity", 1.0, 3.0),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let VarValue::Block(owned) = velocity_chunk() else { unreachable!() };
        let packed = VarValue::Block(LocalBlock {
            data: ArrayData::Packed(evpath::ffs::PackedArray::from_f64s(owned.data.as_f64())),
            ..owned.clone()
        });
        assert_eq!(p.apply(&packed).unwrap(), p.apply(&VarValue::Block(owned)).unwrap());
    }

    #[test]
    fn bad_source_fails_at_install_not_apply() {
        let spec = PluginSpec {
            var: "v".into(),
            source: "let x = ;".into(),
            placement: PluginPlacement::ReaderSide,
        };
        assert!(matches!(InstalledPlugin::install(spec), Err(PluginError::Compile(_))));
    }

    #[test]
    fn scalar_chunks_rejected() {
        let spec = PluginSpec {
            var: "v".into(),
            source: codelet::plugins::annotate("v", "t"),
            placement: PluginPlacement::ReaderSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let err = p.apply(&VarValue::Scalar(adios::ScalarValue::U64(1)));
        assert!(matches!(err, Err(PluginError::UnsupportedChunk(_))));
    }
}
