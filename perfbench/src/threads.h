/// \file threads.h
/// \brief Worker threads of one episode: exceptions are carried back to
/// the caller, and every thread is joined on every path.
#pragma once

#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

class Workers {
 public:
  /// `abort` unblocks the workers (closes rings and queues) when the
  /// episode unwinds before they finished.
  explicit Workers(std::function<void()> abort) : abort_(std::move(abort)) {}
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  ~Workers() {
    if (!threads_.empty()) {
      abort_();
      join_all();
    }
  }

  void spawn(std::function<void()> body) {
    threads_.emplace_back([this, body = std::move(body)] {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lock{mu_};
        if (!error_) error_ = std::current_exception();
        abort_();
      }
    });
  }

  /// Joins every worker and rethrows the first exception one raised.
  void join() {
    join_all();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void join_all() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  std::function<void()> abort_;
  std::mutex mu_;
  std::exception_ptr error_;  ///< guarded by mu_ until the threads join
  std::vector<std::thread> threads_;
};

}  // namespace pb
