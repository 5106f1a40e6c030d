//! Kernel functions for the non-linear SVMs used by CEMPaR.

use serde::{Deserialize, Serialize};
use textproc::SparseVector;

/// A Mercer kernel `K(x, z)` on sparse document vectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// Plain dot product `x · z`.
    Linear,
    /// Radial basis function `exp(-gamma * ||x - z||²)`.
    Rbf {
        /// Width parameter; larger values make the kernel more local.
        gamma: f64,
    },
    /// Polynomial kernel `(gamma * x·z + coef0)^degree`.
    Polynomial {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
}

impl Default for Kernel {
    fn default() -> Self {
        // RBF is the usual default for text cascade SVMs; gamma = 1.0 works
        // well with L2-normalized TF-IDF vectors (||x - z||² ∈ [0, 2]).
        Kernel::Rbf { gamma: 1.0 }
    }
}

impl Kernel {
    /// Evaluates the kernel on two sparse vectors.
    pub fn eval(&self, x: &SparseVector, z: &SparseVector) -> f64 {
        match *self {
            Kernel::Linear => x.dot(z),
            Kernel::Rbf { gamma } => (-gamma * x.distance_sq(z).max(0.0)).exp(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * x.dot(z) + coef0).powi(degree as i32),
        }
    }

    /// `K(sv, x)` from its parts: `dot = sv · x` and the squared norms of
    /// both vectors (read only by RBF). When `dot` is accumulated in
    /// ascending feature order, as [`SparseVector::dot`] does, the result is
    /// bit-identical to `self.eval(sv, x)`: RBF evaluates the same
    /// `‖sv‖² + ‖x‖² − 2·dot` expression as [`SparseVector::distance_sq`].
    #[inline]
    pub(crate) fn eval_from_dot(&self, dot: f64, sv_norm_sq: f64, x_norm_sq: f64) -> f64 {
        match *self {
            Kernel::Linear => dot,
            Kernel::Rbf { gamma } => (-gamma * (sv_norm_sq + x_norm_sq - 2.0 * dot).max(0.0)).exp(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot + coef0).powi(degree as i32),
        }
    }

    /// A human-readable name for logs and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Linear => "linear",
            Kernel::Rbf { .. } => "rbf",
            Kernel::Polynomial { .. } => "polynomial",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn linear_kernel_is_dot_product() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(Kernel::Linear.eval(&a, &b), 6.0);
    }

    #[test]
    fn rbf_is_one_on_identical_inputs() {
        let a = v(&[(0, 0.5), (3, 1.5)]);
        let k = Kernel::Rbf { gamma: 0.7 };
        assert!((k.eval(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decreases_with_distance() {
        let k = Kernel::Rbf { gamma: 1.0 };
        let a = v(&[(0, 1.0)]);
        let near = v(&[(0, 0.9)]);
        let far = v(&[(1, 1.0)]);
        assert!(k.eval(&a, &near) > k.eval(&a, &far));
        assert!(k.eval(&a, &far) > 0.0);
    }

    #[test]
    fn polynomial_kernel() {
        let k = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 2.0)]);
        assert!((k.eval(&a, &b) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_symmetry() {
        let kernels = [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.5 },
            Kernel::Polynomial {
                gamma: 0.3,
                coef0: 1.0,
                degree: 3,
            },
        ];
        let a = v(&[(0, 1.0), (2, -1.0)]);
        let b = v(&[(1, 2.0), (2, 0.5)]);
        for k in kernels {
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-12, "{k:?}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(Kernel::Linear.name(), "linear");
        assert_eq!(Kernel::default().name(), "rbf");
    }
}
