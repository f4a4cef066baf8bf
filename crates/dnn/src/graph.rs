//! Model graphs: ordered DAGs of [`LayerSpec`] nodes with shape inference.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::layer::{LayerKind, LayerSpec};
use crate::stats::{LayerStats, ModelStats};
use crate::tensor::TensorShape;

/// Identifier of a layer within one [`ModelGraph`].
///
/// Ids are dense indices assigned in insertion order, which is also a
/// topological order (a layer may only consume already-inserted layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(pub(crate) u32);

impl LayerId {
    /// The dense index of this layer.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Errors surfaced by [`ModelGraph::validate`] and the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A layer references an id that has not been inserted yet.
    DanglingInput {
        /// The offending layer's name.
        layer: String,
    },
    /// Two layers share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// The graph has no layers.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { layer } => {
                write!(f, "layer `{layer}` references an input that does not exist")
            }
            GraphError::DuplicateName { name } => {
                write!(f, "duplicate layer name `{name}`")
            }
            GraphError::Empty => f.write_str("model graph contains no layers"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A neural network expressed as an ordered layer DAG.
///
/// Layers are appended with [`ModelGraph::add`]; insertion order is the
/// execution (topological) order. Shapes, parameter counts and FLOPs are
/// inferred on demand and cached by [`ModelGraph::stats`]. The content
/// [`ModelGraph::fingerprint`] is computed once and stored.
///
/// # Examples
///
/// ```
/// use jetsim_dnn::{Activation, LayerKind, ModelGraph, TensorShape};
///
/// let mut g = ModelGraph::new("tiny", TensorShape::new(3, 32, 32));
/// let conv = g.add("conv1", LayerKind::Conv2d {
///     out_channels: 8, kernel: 3, stride: 1, padding: 1,
///     dilation: 1, groups: 1, bias: false,
/// }, &[]);
/// g.add("relu1", LayerKind::Act(Activation::Relu), &[conv]);
/// g.validate().unwrap();
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.output_shape(conv), TensorShape::new(8, 32, 32));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    input_shape: TensorShape,
    layers: Vec<LayerSpec>,
    // Inferred eagerly in `add` and serialized alongside the layers, so
    // graphs are cheap to query and `Sync` for parallel sweeps.
    shapes: Vec<TensorShape>,
    // `fingerprint()`'s value once computed. Not serialized, so the JSON
    // it hashes is the graph alone; cleared by `add`, the only mutator.
    #[serde(skip)]
    fingerprint: OnceLock<u64>,
}

impl ModelGraph {
    /// Creates an empty graph for inputs of shape `input_shape`.
    pub fn new(name: impl Into<String>, input_shape: TensorShape) -> Self {
        ModelGraph {
            name: name.into(),
            input_shape,
            layers: Vec::new(),
            shapes: Vec::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The model's name (e.g. `resnet50`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The (un-batched) input shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// Appends a layer consuming `inputs` (empty = the graph input) and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an input id is out of range or the inferred shapes are
    /// incompatible with the operator (see [`LayerKind::infer_shape`]).
    pub fn add(&mut self, name: impl Into<String>, kind: LayerKind, inputs: &[LayerId]) -> LayerId {
        let name = name.into();
        for &input in inputs {
            assert!(
                input.index() < self.layers.len(),
                "layer `{name}` references future layer {input}"
            );
        }
        let id = LayerId(self.layers.len() as u32);
        self.fingerprint.take();
        self.layers.push(LayerSpec {
            name,
            kind,
            inputs: inputs.to_vec(),
        });
        // Eagerly extend the shape cache so output_shape is O(1).
        let resolved: Vec<TensorShape> = if inputs.is_empty() {
            vec![self.input_shape]
        } else {
            inputs.iter().map(|&i| self.shapes[i.index()]).collect()
        };
        self.shapes.push(kind.infer_shape(&resolved));
        id
    }

    /// The number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn layer(&self, id: LayerId) -> &LayerSpec {
        &self.layers[id.index()]
    }

    /// Iterates over `(id, layer)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &LayerSpec)> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| (LayerId(i as u32), l))
    }

    /// The inferred output shape of a layer.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn output_shape(&self, id: LayerId) -> TensorShape {
        self.shapes[id.index()]
    }

    /// Resolved input shapes of a layer.
    pub fn input_shapes(&self, id: LayerId) -> Vec<TensorShape> {
        let spec = self.layer(id);
        if spec.inputs.is_empty() {
            vec![self.input_shape]
        } else {
            spec.inputs
                .iter()
                .map(|&i| self.shapes[i.index()])
                .collect()
        }
    }

    /// The shape of the final layer's output.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn final_output_shape(&self) -> TensorShape {
        assert!(!self.is_empty(), "graph has no layers");
        self.output_shape(LayerId((self.layers.len() - 1) as u32))
    }

    /// Checks structural invariants: non-empty, unique names, no dangling
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.layers.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut names = HashSet::with_capacity(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate() {
            if !names.insert(layer.name.as_str()) {
                return Err(GraphError::DuplicateName {
                    name: layer.name.clone(),
                });
            }
            if layer.inputs.iter().any(|i| i.index() >= idx) {
                return Err(GraphError::DanglingInput {
                    layer: layer.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Content fingerprint: FNV-1a 64 over the graph's JSON, so two
    /// graphs with the same layers share it whatever their provenance.
    /// Computed on the first call and stored (clones carry it along);
    /// [`ModelGraph::add`] clears it. Engine-cache keys are built from
    /// it, so a warm cache hit costs a hash-map lookup, not a
    /// serialisation of the whole graph.
    ///
    /// # Examples
    ///
    /// ```
    /// use jetsim_dnn::{Activation, LayerKind, ModelGraph, TensorShape};
    ///
    /// let mut g = ModelGraph::new("tiny", TensorShape::new(3, 8, 8));
    /// g.add("relu", LayerKind::Act(Activation::Relu), &[]);
    /// let before = g.fingerprint();
    /// assert_eq!(g.clone().fingerprint(), before);
    /// g.add("relu2", LayerKind::Act(Activation::Relu), &[]);
    /// assert_ne!(g.fingerprint(), before);
    /// ```
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let bytes = serde_json::to_vec(self).expect("ModelGraph serialises");
            jetsim_des::fnv1a(&bytes)
        })
    }

    /// Per-layer statistics (shape, params, FLOPs, bytes) in execution
    /// order.
    pub fn layer_stats(&self) -> Vec<LayerStats> {
        self.iter()
            .map(|(id, spec)| {
                let inputs = self.input_shapes(id);
                LayerStats {
                    id,
                    name: spec.name.clone(),
                    kind: spec.kind,
                    output_shape: self.output_shape(id),
                    params: spec.kind.params(&inputs),
                    flops: spec.kind.flops(&inputs),
                    unit_bytes_moved: spec.kind.unit_bytes_moved(&inputs),
                }
            })
            .collect()
    }

    /// Whole-model statistics.
    pub fn stats(&self) -> ModelStats {
        let per_layer = self.layer_stats();
        ModelStats::from_layers(&self.name, self.input_shape, &per_layer)
    }
}

impl fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, input {})",
            self.name,
            self.layers.len(),
            self.input_shape
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;

    fn conv(out: u64, k: u64, s: u64, p: u64) -> LayerKind {
        LayerKind::Conv2d {
            out_channels: out,
            kernel: k,
            stride: s,
            padding: p,
            dilation: 1,
            groups: 1,
            bias: false,
        }
    }

    fn tiny_graph() -> ModelGraph {
        let mut g = ModelGraph::new("tiny", TensorShape::new(3, 8, 8));
        let c1 = g.add("c1", conv(4, 3, 1, 1), &[]);
        let r1 = g.add("r1", LayerKind::Act(Activation::Relu), &[c1]);
        let c2 = g.add("c2", conv(4, 3, 1, 1), &[r1]);
        g.add("add", LayerKind::Add, &[r1, c2]);
        g
    }

    #[test]
    fn insertion_order_is_execution_order() {
        let g = tiny_graph();
        let names: Vec<&str> = g.iter().map(|(_, l)| l.name.as_str()).collect();
        assert_eq!(names, vec!["c1", "r1", "c2", "add"]);
    }

    #[test]
    fn shapes_flow_through() {
        let g = tiny_graph();
        assert_eq!(g.final_output_shape(), TensorShape::new(4, 8, 8));
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tiny_graph().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty() {
        let g = ModelGraph::new("empty", TensorShape::new(1, 1, 1));
        assert_eq!(g.validate().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut g = ModelGraph::new("dup", TensorShape::new(3, 8, 8));
        g.add("x", conv(4, 1, 1, 0), &[]);
        g.add("x", LayerKind::BatchNorm, &[LayerId(0)]);
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateName { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "future layer")]
    fn add_rejects_out_of_range_input() {
        let mut g = ModelGraph::new("bad", TensorShape::new(3, 8, 8));
        g.add("x", LayerKind::BatchNorm, &[LayerId(5)]);
    }

    #[test]
    fn stats_aggregate_layers() {
        let g = tiny_graph();
        let stats = g.stats();
        let per_layer = g.layer_stats();
        assert_eq!(stats.layer_count, 4);
        assert_eq!(
            stats.params,
            per_layer.iter().map(|l| l.params).sum::<u64>()
        );
        assert_eq!(
            stats.flops_per_image,
            per_layer.iter().map(|l| l.flops).sum::<u64>() as f64
        );
    }

    #[test]
    fn input_shapes_resolve_graph_input() {
        let g = tiny_graph();
        assert_eq!(g.input_shapes(LayerId(0)), vec![TensorShape::new(3, 8, 8)]);
        assert_eq!(g.input_shapes(LayerId(3)).len(), 2);
    }

    #[test]
    fn stored_fingerprint_stays_out_of_the_json() {
        let g = tiny_graph();
        let before = serde_json::to_string(&g).unwrap();
        let fingerprint = g.fingerprint();
        assert_eq!(serde_json::to_string(&g).unwrap(), before);
        assert!(!before.contains("fingerprint"));
        let back: ModelGraph = serde_json::from_str(&before).unwrap();
        assert_eq!(back.fingerprint(), fingerprint);
        assert_eq!(fingerprint, jetsim_des::fnv1a(before.as_bytes()));
    }

    #[test]
    fn display_mentions_name_and_count() {
        let text = format!("{}", tiny_graph());
        assert!(text.contains("tiny") && text.contains("4 layers"));
    }

    #[test]
    fn error_display_messages() {
        let e = GraphError::DuplicateName { name: "z".into() };
        assert!(e.to_string().contains('z'));
        assert!(!GraphError::Empty.to_string().is_empty());
        let d = GraphError::DanglingInput { layer: "q".into() };
        assert!(d.to_string().contains('q'));
    }
}
