//! Optimizers: SGD and Adam.
//!
//! Adam matters to the reproduction beyond convergence speed: its two
//! FP32 moment buffers are the "memory used for such an optimizer as
//! Adam" that Algorithm 1's memory estimate must include (§III-C).

/// A parameter-update rule over flat `f32` buffers.
pub trait Optimizer {
    /// Apply one update of `param` given `grad` (same length).
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with a learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, param: &mut [f32], grad: &[f32]) {
        crate::ops::axpy(param, -self.lr, grad);
    }
}

/// Adam (Kingma & Ba) with per-slot first/second moment state.
///
/// `slot` identifies the parameter tensor so one optimizer instance can
/// serve a whole stage; state is allocated lazily on first use.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    state: Vec<Option<AdamSlot>>,
}

#[derive(Debug, Clone)]
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: Vec::new(),
        }
    }

    /// Bytes of optimizer state currently held (tests the 8-bytes/param
    /// accounting assumption of the memory model).
    pub fn state_bytes(&self) -> usize {
        self.state
            .iter()
            .flatten()
            .map(|s| (s.m.len() + s.v.len()) * 4)
            .sum()
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len());
        if self.state.len() <= slot {
            self.state.resize(slot + 1, None);
        }
        let st = self.state[slot].get_or_insert_with(|| AdamSlot {
            m: vec![0.0; param.len()],
            v: vec![0.0; param.len()],
            t: 0,
        });
        assert_eq!(st.m.len(), param.len(), "slot reused with another shape");
        st.t += 1;
        let b1t = 1.0 - self.beta1.powi(st.t as i32);
        let b2t = 1.0 - self.beta2.powi(st.t as i32);
        for i in 0..param.len() {
            let g = grad[i];
            st.m[i] = self.beta1 * st.m[i] + (1.0 - self.beta1) * g;
            st.v[i] = self.beta2 * st.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = st.m[i] / b1t;
            let vhat = st.v[i] / b2t;
            param[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = vec![1.0f32, -1.0];
        Sgd::new(0.1).step(0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(x) = (x - 3)^2, grad = 2(x - 3)
        let mut x = vec![0.0f32];
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn adam_state_bytes() {
        let mut adam = Adam::new(0.01);
        let mut p = vec![0.0f32; 100];
        adam.step(0, &mut p, &vec![0.1; 100]);
        // 2 moments × 100 params × 4 bytes
        assert_eq!(adam.state_bytes(), 800);
    }

    #[test]
    fn slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32; 2];
        adam.step(0, &mut a, &[1.0]);
        adam.step(1, &mut b, &[1.0, 1.0]);
        adam.step(0, &mut a, &[1.0]);
        assert_eq!(adam.state_bytes(), (1 + 2) * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "slot reused")]
    fn slot_shape_mismatch_panics() {
        let mut adam = Adam::new(0.1);
        let mut a = vec![0.0f32; 2];
        adam.step(0, &mut a, &[1.0, 1.0]);
        let mut b = vec![0.0f32; 3];
        adam.step(0, &mut b, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn adam_is_deterministic() {
        let run = || {
            let mut x = vec![0.5f32, -0.5];
            let mut adam = Adam::new(0.05);
            for i in 0..50 {
                let g = vec![x[0] * 2.0 + i as f32 * 0.01, x[1] - 1.0];
                adam.step(0, &mut x, &g);
            }
            x
        };
        assert_eq!(run(), run());
    }
}
