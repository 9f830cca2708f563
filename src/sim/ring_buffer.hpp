/**
 * @file
 * Fixed-capacity ring buffer used for the FIFOs on the simulator's
 * per-cycle hot path (input-VC buffers, router output FIFOs, endpoint
 * sink VCs and source queue).
 *
 * std::deque allocates storage in chunks as elements churn through it;
 * at tens of thousands of simulated cycles per second that heap
 * traffic dominates the inner loop. A RingBuffer allocates once — its
 * capacity is fixed by a structural bound (VC buffer depth, output
 * FIFO depth) — and push/pop are an index increment behind a
 * power-of-two mask. (Channel pipes keep their rings in the link
 * fabric's lanes instead; see router/channel.hpp.)
 *
 * Two overflow policies:
 *  - fixed (default): pushing into a full buffer is a simulator bug
 *    (the flow-control invariants bound every FIFO) and FP_ASSERTs.
 *  - growable: storage doubles when full. Used by the endpoint's
 *    source queue, whose open-loop backlog has no structural bound.
 */

#ifndef FOOTPRINT_SIM_RING_BUFFER_HPP
#define FOOTPRINT_SIM_RING_BUFFER_HPP

#include <cstddef>
#include <iterator>
#include <vector>

#include "sim/log.hpp"

namespace footprint {

template <typename T>
class RingBuffer
{
  public:
    /** An empty buffer with zero capacity; reset() before pushing. */
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity, bool growable = false)
    {
        reset(capacity, growable);
    }

    /**
     * Discard contents and reallocate for at least @p capacity
     * elements (rounded up to a power of two).
     */
    void
    reset(std::size_t capacity, bool growable = false)
    {
        growable_ = growable;
        head_ = 0;
        size_ = 0;
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        data_.assign(cap, T{});
        mask_ = cap - 1;
    }

    void
    push_back(const T& value)
    {
        if (size_ == data_.size()) {
            if (growable_) {
                grow();
            } else {
                FP_ASSERT(size_ < data_.size(),
                          "ring buffer overflow (capacity "
                              << data_.size() << ")");
            }
        }
        data_[(head_ + size_) & mask_] = value;
        ++size_;
    }

    void
    pop_front()
    {
        FP_ASSERT(size_ > 0, "pop_front on empty ring buffer");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    T&
    front()
    {
        FP_ASSERT(size_ > 0, "front on empty ring buffer");
        return data_[head_];
    }

    const T&
    front() const
    {
        FP_ASSERT(size_ > 0, "front on empty ring buffer");
        return data_[head_];
    }

    T&
    back()
    {
        FP_ASSERT(size_ > 0, "back on empty ring buffer");
        return data_[(head_ + size_ - 1) & mask_];
    }

    const T&
    back() const
    {
        FP_ASSERT(size_ > 0, "back on empty ring buffer");
        return data_[(head_ + size_ - 1) & mask_];
    }

    /** Element @p i positions behind the front (0 == front). */
    const T& operator[](std::size_t i) const
    {
        return data_[(head_ + i) & mask_];
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == data_.size(); }
    std::size_t size() const { return size_; }

    /** Slots allocated (>= the capacity passed to reset()). */
    std::size_t capacity() const { return data_.size(); }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Forward const iterator, front to back (audits, dumps, tests). */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T*;
        using reference = const T&;

        const_iterator() = default;
        const_iterator(const RingBuffer* rb, std::size_t pos)
            : rb_(rb), pos_(pos)
        {}

        reference operator*() const { return (*rb_)[pos_]; }
        pointer operator->() const { return &(*rb_)[pos_]; }

        const_iterator&
        operator++()
        {
            ++pos_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++pos_;
            return old;
        }

        bool
        operator==(const const_iterator& o) const
        {
            return rb_ == o.rb_ && pos_ == o.pos_;
        }

        bool operator!=(const const_iterator& o) const
        {
            return !(*this == o);
        }

      private:
        const RingBuffer* rb_ = nullptr;
        std::size_t pos_ = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    void
    grow()
    {
        std::vector<T> bigger(data_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = data_[(head_ + i) & mask_];
        data_.swap(bigger);
        head_ = 0;
        mask_ = data_.size() - 1;
    }

    std::vector<T> data_;
    std::size_t mask_ = 0;  ///< data_.size() - 1 (power-of-two sizes)
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    bool growable_ = false;
};

} // namespace footprint

#endif // FOOTPRINT_SIM_RING_BUFFER_HPP
