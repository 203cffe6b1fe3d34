//! Admission control.

use super::*;

/// Schedules concurrent runs under the service's compute slots and global
/// memory cap: a run takes a slot ([`admit`](Self::admit)), then its Longs
/// ([`AdmissionPermit::reserve`]) once the sum of admitted reservations
/// (each capped at the budget itself, so a single oversized run degrades to
/// *exclusive* rather than *impossible*) fits under `memory_cap_longs`.
/// Dropping the permit — completion, failure, cancellation — gives both
/// back and wakes every waiter.
#[derive(Debug)]
pub struct AdmissionController {
    cap: u64,
    slots: usize,
    state: Mutex<AdmissionState>,
    available: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    admitted: u64,
    peak: u64,
    /// Slots taken.
    running: usize,
}

/// One admitted run's slot and reservation; releases both on drop.
#[derive(Debug)]
pub struct AdmissionPermit {
    longs: u64,
    controller: Arc<AdmissionController>,
}

impl AdmissionController {
    /// A controller with `cap` Longs of global budget and `slots` runs
    /// computing at once (at least one of each).
    pub fn new(cap: u64, slots: usize) -> Self {
        AdmissionController {
            cap: cap.max(1),
            slots: slots.max(1),
            state: Mutex::new(AdmissionState::default()),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_until(
        &self,
        mut stop: impl FnMut() -> bool,
        fits: impl Fn(&AdmissionState) -> bool,
    ) -> Result<std::sync::MutexGuard<'_, AdmissionState>, EulerError> {
        let mut state = self.lock();
        loop {
            if stop() {
                return Err(EulerError::Cancelled);
            }
            if fits(&state) {
                return Ok(state);
            }
            state = self.available.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until a compute slot is free and takes it; the permit holds no
    /// Longs until [`AdmissionPermit::reserve`]. `stop` is asked before the
    /// first check and on every wake: a permit released, or a
    /// [`wake`](Self::wake) from whoever can change its answer.
    ///
    /// # Errors
    /// [`EulerError::Cancelled`] once `stop` returns `true` while waiting.
    pub fn admit(self: &Arc<Self>, stop: impl FnMut() -> bool) -> Result<AdmissionPermit, EulerError> {
        self.wait_until(stop, |state| state.running < self.slots)?.running += 1;
        Ok(AdmissionPermit { longs: 0, controller: Arc::clone(self) })
    }

    /// Wakes every waiter to ask its `stop` again; under the lock, so no
    /// waiter between its `stop` and its wait misses it.
    pub fn wake(&self) {
        let _state = self.lock();
        self.available.notify_all();
    }

    /// Longs currently admitted (the instantaneous budget in use).
    pub fn admitted_longs(&self) -> u64 {
        self.lock().admitted
    }

    /// High-water mark of [`admitted_longs`](Self::admitted_longs) — by
    /// construction never above the cap.
    pub fn peak_admitted_longs(&self) -> u64 {
        self.lock().peak
    }
}

impl AdmissionPermit {
    /// Longs this permit reserves.
    pub fn longs(&self) -> u64 {
        self.longs
    }

    /// Blocks until `longs` more Longs (a permit holds at most the cap) fit
    /// beside everything admitted, then reserves them; `stop` is asked as in
    /// [`AdmissionController::admit`].
    ///
    /// # Errors
    /// [`EulerError::Cancelled`] once `stop` returns `true` while waiting.
    pub fn reserve(&mut self, longs: u64, stop: impl FnMut() -> bool) -> Result<(), EulerError> {
        let controller = &self.controller;
        let ask = longs.min(controller.cap - self.longs);
        let mut state = controller.wait_until(stop, |state| state.admitted + ask <= controller.cap)?;
        state.admitted += ask;
        state.peak = state.peak.max(state.admitted);
        self.longs += ask;
        Ok(())
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.controller.lock();
        state.admitted = state.admitted.saturating_sub(self.longs);
        state.running = state.running.saturating_sub(1);
        self.controller.available.notify_all();
    }
}
