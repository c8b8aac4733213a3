//! One owned segment of a global array, kept copy-on-write.
//!
//! Both backends hold every owned segment in a [`Shard`]: an
//! `Arc<Vec<f64>>` behind a read-write lock. A reader either copies a
//! range out under the read lock, or takes a *view* — a clone of the
//! `Arc` — and then holds it with no lock for as long as it likes (the
//! `ga_access` path: a task computes straight out of the shard). Put, acc
//! and zero take the write lock and go through [`Arc::make_mut`]: with no
//! view live they mutate in place; with one live they first clone the
//! segment, so the view keeps the snapshot it was taken from and the
//! writer never waits for a reader to finish with it. Every such clone is
//! reported to the caller, which counts it in
//! [`crate::GaStats::shard_clones`]; the CCSD data path keeps it at zero,
//! because no solve writes an array its readers view.

use parking_lot::RwLock;
use std::sync::Arc;

pub(crate) struct Shard {
    data: RwLock<Arc<Vec<f64>>>,
    /// Fixed at creation: writers replace the buffer, never resize it.
    len: usize,
}

impl Shard {
    /// A zeroed shard of `len` elements.
    pub(crate) fn new(len: usize) -> Self {
        Self::from_vec(vec![0.0; len])
    }

    pub(crate) fn from_vec(v: Vec<f64>) -> Self {
        Self {
            len: v.len(),
            data: RwLock::new(Arc::new(v)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Copy `[at, at+out.len())` (shard-relative) into `out`.
    pub(crate) fn copy_into(&self, at: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.data.read()[at..at + out.len()]);
    }

    /// A read-only view of the current contents. Later writes leave it
    /// unchanged.
    pub(crate) fn view(&self) -> Arc<Vec<f64>> {
        self.data.read().clone()
    }

    /// Apply `f` to the contents, cloning them first when a view is
    /// live. Returns whether it cloned.
    #[must_use]
    fn mutate(&self, f: impl FnOnce(&mut [f64])) -> bool {
        let mut data = self.data.write();
        let before = Arc::as_ptr(&*data);
        f(Arc::<Vec<f64>>::make_mut(&mut data));
        Arc::as_ptr(&*data) != before
    }

    /// Overwrite `[at, at+src.len())` with `src`. Returns whether a live
    /// view forced a clone.
    #[must_use]
    pub(crate) fn write(&self, at: usize, src: &[f64]) -> bool {
        self.mutate(|d| d[at..at + src.len()].copy_from_slice(src))
    }

    /// `[at, at+src.len()) += alpha * src`. Returns whether a live view
    /// forced a clone.
    #[must_use]
    pub(crate) fn acc(&self, at: usize, src: &[f64], alpha: f64) -> bool {
        self.mutate(|d| {
            for (dst, x) in d[at..at + src.len()].iter_mut().zip(src) {
                *dst += alpha * x;
            }
        })
    }

    /// Zero every element. Returns whether a live view forced a clone.
    #[must_use]
    pub(crate) fn zero(&self) -> bool {
        self.mutate(|d| d.fill(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_in_place_without_views_and_clone_under_one() {
        let s = Shard::new(4);
        assert!(!s.write(1, &[1.0, 2.0]), "no view: in place");
        let v = s.view();
        assert!(s.acc(0, &[1.0; 4], 10.0), "live view: clone");
        assert_eq!(*v, vec![0.0, 1.0, 2.0, 0.0], "the view keeps its snapshot");
        assert_eq!(*s.view(), vec![10.0, 11.0, 12.0, 10.0]);
        drop(v);
        assert!(!s.zero(), "view dropped: in place again");
        let mut out = [9.0; 2];
        s.copy_into(2, &mut out);
        assert_eq!(out, [0.0, 0.0]);
        assert_eq!(s.len(), 4);
    }
}
