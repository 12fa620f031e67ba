//! The [`SyncHost`] abstraction: the kernel services synchronization
//! primitives need, implemented by both [`Kernel`] (for setup code) and
//! [`ThreadCx`] (for running threads).

use asym_kernel::{Kernel, ShareId, ThreadCx, WaitId};

/// Kernel services required by the synchronization primitives.
///
/// This trait is sealed: it is implemented for [`Kernel`] and
/// [`ThreadCx`] and is not meant to be implemented outside this crate.
pub trait SyncHost: private::Sealed {
    /// Allocates a kernel wait queue.
    fn create_wait_queue(&mut self) -> WaitId;
    /// Registers a shared object for access tracing.
    fn register_shared(&mut self, label: &str) -> ShareId;
}

impl SyncHost for Kernel {
    fn create_wait_queue(&mut self) -> WaitId {
        Kernel::create_wait_queue(self)
    }
    fn register_shared(&mut self, label: &str) -> ShareId {
        Kernel::register_shared(self, label)
    }
}

impl SyncHost for ThreadCx<'_> {
    fn create_wait_queue(&mut self) -> WaitId {
        ThreadCx::create_wait_queue(self)
    }
    fn register_shared(&mut self, label: &str) -> ShareId {
        ThreadCx::register_shared(self, label)
    }
}

mod private {
    use asym_kernel::{Kernel, ThreadCx};

    pub trait Sealed {}
    impl Sealed for Kernel {}
    impl Sealed for ThreadCx<'_> {}
}
