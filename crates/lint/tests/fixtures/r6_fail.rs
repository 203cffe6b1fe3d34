// Fixture: timed waits in the functions a blocking path is scoped to.

use std::time::Duration;

pub fn serve(rx: &std::sync::mpsc::Receiver<u8>) -> Option<u8> {
    rx.recv_timeout(Duration::from_millis(50)).ok() //~ no-timed-wait
}

pub fn admit(lock: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {
    let guard = lock.lock().unwrap();
    let _ = cv.wait_timeout(guard, ACCEPT_RETRY); //~ no-timed-wait
    std::thread::sleep(ACCEPT_RETRY); //~ no-timed-wait
}

const ACCEPT_RETRY: Duration = Duration::from_millis(10);
