//! Tensor shapes and element types.
//!
//! Shapes in this IR are *per-sample*: the builders in `rannc-models`
//! construct graphs for a single example (batch size 1), and the analytical
//! profiler in `rannc-profile` scales FLOPs and activation memory linearly
//! with the micro-batch size. This matches how RaNNC's profiler varies the
//! batch size passed to `profile(U, bs)` in Algorithm 1 of the paper.

/// Element type of a tensor value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (FP32 training).
    F32,
    /// 16-bit IEEE float (mixed-precision activations/weights).
    F16,
    /// 64-bit integer (token ids, label ids).
    I64,
    /// Boolean masks.
    Bool,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I64 => 8,
            DType::Bool => 1,
        }
    }
}

/// A tensor shape: the dimensions of one sample (no batch dimension).
///
/// An empty dimension list denotes a scalar.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from its dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape { dims: dims.into() }
    }

    /// A scalar (0-dimensional) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension list.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (1 for scalars).
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Byte size of one sample of this shape at the given element type.
    #[inline]
    pub fn size_bytes(&self, dtype: DType) -> usize {
        self.numel() * dtype.size_bytes()
    }

    /// Dimension `i`, panicking on out-of-range (builder-time errors only).
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_bytes() {
        let s = Shape::from([512, 1024]);
        assert_eq!(s.numel(), 512 * 1024);
        assert_eq!(s.size_bytes(DType::F32), 512 * 1024 * 4);
        assert_eq!(s.size_bytes(DType::F16), 512 * 1024 * 2);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.size_bytes(DType::F32), 4);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::from([2, 3, 4]).to_string(), "[2x3x4]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::I64.size_bytes(), 8);
        assert_eq!(DType::Bool.size_bytes(), 1);
    }
}
