// Fixture: the scoped functions block until woken; a timed wait outside
// them, in a test item, or under a reasoned pragma is not a finding.

use std::time::Duration;

pub fn serve(rx: &std::sync::mpsc::Receiver<u8>, conn: &Conn) -> Option<u8> {
    let _ = conn.recv_timeout(None);
    rx.recv().ok()
}

pub fn admit(lock: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {
    let guard = lock.lock().unwrap();
    let _ = cv.wait(guard);
    // lint:allow(no-timed-wait): the pause after a failed accept is an error path
    std::thread::sleep(RETRY);
}

pub fn client(rx: &std::sync::mpsc::Receiver<u8>) -> Option<u8> {
    rx.recv_timeout(Duration::from_secs(120)).ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn serve() {
        std::thread::sleep(super::Duration::from_millis(1));
    }
}
