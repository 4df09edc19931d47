// Fixture: DK-T002 threading primitives in src/. The simulator and
// everything it drives run on one thread (DESIGN §6), so src/ starts no
// thread and needs no lock, atomic or other synchronization.
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <future>
#include <latch>
#include <mutex>
#include <semaphore>
#include <stop_token>
#include <thread>

namespace fixture {

class Locked {
 public:
  void touch() {
    std::lock_guard<std::mutex> lock(mu_);  // expect: DK-T002
    ++n_;
  }

 private:
  std::mutex mu_;  // expect: DK-T002
  int n_ = 0;
};

struct Shared {
  std::atomic<int> hits{0};  // expect: DK-T002
  std::atomic_flag flag;  // expect: DK-T002
  std::condition_variable cv;  // expect: DK-T002
  std::condition_variable_any cv_any;  // expect: DK-T002
  std::stop_source stopper;  // expect: DK-T002
  std::stop_token token;  // expect: DK-T002
  std::counting_semaphore<4> slots{4};  // expect: DK-T002
  std::binary_semaphore gate{0};  // expect: DK-T002
};

int spawn() {
  std::thread worker([] {});  // expect: DK-T002
  worker.join();
  std::jthread poller([] {});  // expect: DK-T002
  return std::async(std::launch::deferred, [] { return 1; }).get();  // expect: DK-T002
}

void rendezvous(int& value) {
  std::atomic_ref<int> ref(value);  // expect: DK-T002
  ref.store(1);
  std::latch arrived(1);  // expect: DK-T002
  arrived.count_down();
  std::barrier<> phase(1);  // expect: DK-T002
  phase.arrive_and_wait();
}

// dklint: allow(DK-T002) — fixture: the suppression form still applies
std::atomic<long> suppressed{0};  // expect-suppressed: DK-T002

// Single-threaded state: plain members, no lock.
class Counter {
 public:
  void touch() { ++n_; }

 private:
  int n_ = 0;
};

}  // namespace fixture
