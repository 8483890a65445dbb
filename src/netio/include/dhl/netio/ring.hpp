#pragma once

// Lockless FIFO ring, modeled on DPDK's rte_ring.
//
// The paper leans on DPDK's "lockless multi-producer multi-consumer ring
// library" (section III-A) for every buffer queue in the system: the shared
// IBQ is multi-producer single-consumer, private OBQs are single-producer
// single-consumer (section IV-A4).  We implement the same algorithm --
// split head/tail indices per side, CAS head reservation for multi mode,
// ordered tail publication -- so the structure is genuinely safe under real
// threads (unit tests hammer it from multiple std::threads), even though the
// simulation core drives it single-threaded.
//
// Capacity is a power of two; the ring holds at most capacity-1 elements
// (classic full/empty disambiguation).

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dhl/common/check.hpp"

namespace dhl::netio {

enum class SyncMode : std::uint8_t {
  kSingle,  // single producer / single consumer on that side
  kMulti,   // multiple producers / consumers on that side
};

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>,
                "Ring elements are copied raw, DPDK-style");

 public:
  /// `size` must be a power of two >= 2.  Usable capacity is size-1.
  Ring(std::string name, std::uint32_t size,
       SyncMode producer = SyncMode::kMulti, SyncMode consumer = SyncMode::kMulti)
      : name_{std::move(name)},
        size_{size},
        mask_{size - 1},
        prod_mode_{producer},
        cons_mode_{consumer},
        slots_(size) {
    DHL_CHECK_MSG(size >= 2 && std::has_single_bit(size),
                  "ring size must be a power of two >= 2");
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  const std::string& name() const { return name_; }
  std::uint32_t capacity() const { return size_ - 1; }

  /// Elements currently stored (approximate under concurrency).
  std::uint32_t count() const {
    const std::uint32_t prod = prod_tail_.load(std::memory_order_acquire);
    const std::uint32_t cons = cons_tail_.load(std::memory_order_acquire);
    return (prod - cons) & mask_;
  }
  std::uint32_t free_count() const { return capacity() - count(); }
  bool empty() const { return count() == 0; }
  bool full() const { return free_count() == 0; }

  /// Enqueue exactly items.size() elements or none.  Returns count enqueued.
  std::size_t enqueue_bulk(std::span<const T> items) {
    return do_enqueue(items, /*exact=*/true);
  }

  /// Enqueue as many of `items` as fit.  Returns count enqueued.
  std::size_t enqueue_burst(std::span<const T> items) {
    return do_enqueue(items, /*exact=*/false);
  }

  bool enqueue(const T& item) { return enqueue_bulk({&item, 1}) == 1; }

  /// Dequeue exactly out.size() elements or none.  Returns count dequeued.
  std::size_t dequeue_bulk(std::span<T> out) {
    return do_dequeue(out, /*exact=*/true);
  }

  /// Dequeue up to out.size() elements.  Returns count dequeued.
  std::size_t dequeue_burst(std::span<T> out) {
    return do_dequeue(out, /*exact=*/false);
  }

  bool dequeue(T& out) { return dequeue_bulk({&out, 1}) == 1; }

  /// Total elements ever enqueued / dropped by failed bulk enqueues.
  std::uint64_t enqueued() const { return enqueued_.load(std::memory_order_relaxed); }
  std::uint64_t enqueue_drops() const { return drops_.load(std::memory_order_relaxed); }

 private:
  std::size_t do_enqueue(std::span<const T> items, bool exact) {
    const std::uint32_t want = static_cast<std::uint32_t>(items.size());
    if (want == 0) return 0;
    std::uint32_t head, next, n;

    if (prod_mode_ == SyncMode::kSingle) {
      head = prod_head_.load(std::memory_order_relaxed);
      const std::uint32_t cons = cons_tail_.load(std::memory_order_acquire);
      const std::uint32_t free = capacity() - ((head - cons) & mask_);
      n = want <= free ? want : (exact ? 0 : free);
      if (n == 0) {
        drops_.fetch_add(want, std::memory_order_relaxed);
        return 0;
      }
      next = head + n;
      prod_head_.store(next, std::memory_order_relaxed);
    } else {
      do {
        head = prod_head_.load(std::memory_order_relaxed);
        const std::uint32_t cons = cons_tail_.load(std::memory_order_acquire);
        const std::uint32_t free = capacity() - ((head - cons) & mask_);
        n = want <= free ? want : (exact ? 0 : free);
        if (n == 0) {
          drops_.fetch_add(want, std::memory_order_relaxed);
          return 0;
        }
        next = head + n;
      } while (!prod_head_.compare_exchange_weak(head, next,
                                                 std::memory_order_relaxed));
    }

    for (std::uint32_t i = 0; i < n; ++i) {
      slots_[(head + i) & mask_] = items[i];
    }

    // Multi-producer: wait for earlier reservations to publish first.  The
    // acquire pairs with the earlier producer's release, so the release
    // store below carries that producer's slot writes to the consumer too.
    while (prod_tail_.load(std::memory_order_acquire) != head) {
      std::this_thread::yield();
    }
    prod_tail_.store(next, std::memory_order_release);
    enqueued_.fetch_add(n, std::memory_order_relaxed);
    if (n < want) drops_.fetch_add(want - n, std::memory_order_relaxed);
    return n;
  }

  std::size_t do_dequeue(std::span<T> out, bool exact) {
    const std::uint32_t want = static_cast<std::uint32_t>(out.size());
    if (want == 0) return 0;
    std::uint32_t head, next, n;

    if (cons_mode_ == SyncMode::kSingle) {
      head = cons_head_.load(std::memory_order_relaxed);
      const std::uint32_t prod = prod_tail_.load(std::memory_order_acquire);
      const std::uint32_t avail = (prod - head) & mask_;
      n = want <= avail ? want : (exact ? 0 : avail);
      if (n == 0) return 0;
      next = head + n;
      cons_head_.store(next, std::memory_order_relaxed);
    } else {
      do {
        head = cons_head_.load(std::memory_order_relaxed);
        const std::uint32_t prod = prod_tail_.load(std::memory_order_acquire);
        const std::uint32_t avail = (prod - head) & mask_;
        n = want <= avail ? want : (exact ? 0 : avail);
        if (n == 0) return 0;
        next = head + n;
      } while (!cons_head_.compare_exchange_weak(head, next,
                                                 std::memory_order_relaxed));
    }

    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = slots_[(head + i) & mask_];
    }

    // Multi-consumer: same chain on the consumer side, so a producer that
    // sees our tail also sees every earlier consumer's slot reads done.
    while (cons_tail_.load(std::memory_order_acquire) != head) {
      std::this_thread::yield();
    }
    cons_tail_.store(next, std::memory_order_release);
    return n;
  }

  std::string name_;
  std::uint32_t size_;
  std::uint32_t mask_;
  SyncMode prod_mode_;
  SyncMode cons_mode_;
  std::vector<T> slots_;

  alignas(64) std::atomic<std::uint32_t> prod_head_{0};
  alignas(64) std::atomic<std::uint32_t> prod_tail_{0};
  alignas(64) std::atomic<std::uint32_t> cons_head_{0};
  alignas(64) std::atomic<std::uint32_t> cons_tail_{0};
  alignas(64) std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> drops_{0};
};

class Mbuf;
/// The queue type DHL actually moves packets through.
using MbufRing = Ring<Mbuf*>;

}  // namespace dhl::netio
