/**
 * @file
 * Dense per-requestor table for the memory system's per-tick results.
 *
 * Requestors are node-assigned task ids: small, dense, non-negative
 * integers. The table stores one slot per id in a flat vector indexed
 * by id and remembers which ids were written since the last clear().
 * clear() walks only those ids, so a tick's clear-and-refill touches
 * O(requestors this tick) slots and, once the vectors have grown to
 * the largest id seen, performs no heap allocation.
 */

#ifndef KELP_MEM_REQUESTOR_TABLE_HH
#define KELP_MEM_REQUESTOR_TABLE_HH

#include <cstddef>
#include <vector>

namespace kelp {
namespace mem {

template <typename T>
class RequestorTable
{
  public:
    /**
     * Slot for a requestor; value-initialized on its first write
     * since the last clear(). Precondition: id >= 0 (the memory
     * system's entry points assert it).
     */
    T &
    operator[](int id)
    {
        const auto i = static_cast<size_t>(id);
        if (i >= slots_.size())
            slots_.resize(i + 1);
        Slot &s = slots_[i];
        if (!s.written) {
            s.written = true;
            s.value = T{};
            ids_.push_back(id);
        }
        return s.value;
    }

    /** Slot for a requestor, or nullptr when it was not written since
     * the last clear(). Any id is accepted. */
    const T *
    find(int id) const
    {
        if (id < 0 || static_cast<size_t>(id) >= slots_.size())
            return nullptr;
        const Slot &s = slots_[static_cast<size_t>(id)];
        return s.written ? &s.value : nullptr;
    }

    /** Ids written since the last clear(), in first-write order. */
    const std::vector<int> &ids() const { return ids_; }

    /** Forget every entry by walking the ids written since the last
     * clear(). */
    void
    clear()
    {
        for (int id : ids_)
            slots_[static_cast<size_t>(id)].written = false;
        ids_.clear();
    }

  private:
    struct Slot
    {
        T value{};
        bool written = false;
    };

    std::vector<Slot> slots_;
    std::vector<int> ids_;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_REQUESTOR_TABLE_HH
