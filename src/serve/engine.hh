/**
 * @file
 * Discrete-event machinery for the serving simulator: the timestamped
 * event heap, the indexed least-loaded dispatch structure, and the
 * arena-backed request pool. Together they replace the polling tick
 * loop's O(P) scans with O(log P) operations, taking a service cell
 * from O(R·P) to O((R + E)·log P) for R requests and E events across
 * a P-device pool.
 *
 * Determinism: every structure breaks ties by a total order that is a
 * pure function of simulation state — events by (time, kind, device
 * index), dispatch by (load, device index) — so outcomes are
 * bit-identical to the polling loop and independent of insertion
 * order (see tests/test_serve.cc).
 *
 * The event queue uses lazy deletion: superseded entries stay in the
 * heap and are discarded when they surface, validated against the
 * current device state, so rescheduling is a single O(log P) push
 * with no decrease-key machinery. The load index is exact instead: a
 * winner tree whose size never exceeds 2·next_pow2(P) slots.
 */

#ifndef PLUTO_SERVE_ENGINE_HH
#define PLUTO_SERVE_ENGINE_HH

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "serve/loadgen.hh"

namespace pluto::serve
{

/**
 * Event kinds, in tie-break order: completions at time t are handled
 * before policy wake-ups at the same t, matching the polling loop's
 * phase order (completions, then arrivals, then batching decisions).
 */
enum class EvKind : u8
{
    DeviceFree = 0,
    PolicyWake = 1,
};

/** One scheduled simulator event. */
struct Ev
{
    TimeNs t = 0.0;
    EvKind kind = EvKind::DeviceFree;
    u32 dev = 0;
};

/**
 * Binary min-heap of events ordered by (t, kind, dev). Entries are
 * never erased in place: the simulator validates each popped event
 * against device state (freeAt / wakeAt) and drops stale ones.
 */
class EventQueue
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const Ev &top() const { return heap_.front(); }

    void schedule(TimeNs t, EvKind kind, u32 dev)
    {
        heap_.push_back(Ev{t, kind, dev});
        std::push_heap(heap_.begin(), heap_.end(), After{});
        ++scheduled_;
        if (heap_.size() > peak_)
            peak_ = heap_.size();
    }

    void pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        heap_.pop_back();
    }

    /** Total schedule() calls (telemetry: serve/events/scheduled). */
    u64 scheduled() const { return scheduled_; }
    /** High-water heap size (telemetry: serve/events/heap_peak). */
    u64 peak() const { return peak_; }

  private:
    /** Strict-weak "fires later" order; the heap's top fires first. */
    struct After
    {
        bool operator()(const Ev &a, const Ev &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            if (a.kind != b.kind)
                return a.kind > b.kind;
            return a.dev > b.dev;
        }
    };

    std::vector<Ev> heap_;
    u64 scheduled_ = 0;
    u64 peak_ = 0;
};

/**
 * Least-loaded device index: a winner tree over (load, device index)
 * mirroring the polling loop's linear scan, which picked the minimum
 * queue+inFlight load and broke ties on the lowest device index.
 *
 * The tree is one flat array of 2·L device ids, L = next_pow2(P):
 * slot L + d is device d's leaf, slot i < L holds the winner of its
 * children 2i and 2i+1, and slot 1 is the overall winner. Padding
 * leaves (d >= P) carry the maximum load and the highest ids, so they
 * never beat a real device. A left child's ids are all below its
 * right sibling's, so "right wins only when strictly lighter" is the
 * lowest-index tie-break.
 */
class LoadIndex
{
  public:
    explicit LoadIndex(u32 devices)
    {
        PLUTO_ASSERT(devices > 0);
        while (leaves_ < devices)
            leaves_ <<= 1;
        load_.assign(leaves_, 0);
        for (u32 d = devices; d < leaves_; ++d)
            load_[d] = ~u64{0};
        tree_.assign(2 * static_cast<std::size_t>(leaves_), 0);
        for (u32 d = 0; d < leaves_; ++d)
            tree_[leaves_ + d] = d;
        for (u32 i = leaves_ - 1; i >= 1; --i)
            tree_[i] = winner(i);
    }

    /** Record `dev`'s new queue+inFlight load: O(log P). */
    void update(u32 dev, u64 load)
    {
        load_[dev] = load;
        for (u32 i = (leaves_ + dev) >> 1; i >= 1; i >>= 1)
            tree_[i] = winner(i);
    }

    /**
     * @return the device the linear scan would pick: minimum load,
     * ties to the lowest index.
     */
    u32 leastLoaded() const { return tree_[1]; }

  private:
    /** @return the winner of slot i's two children. */
    u32 winner(u32 i) const
    {
        const u32 a = tree_[2 * i];
        const u32 b = tree_[2 * i + 1];
        return load_[b] < load_[a] ? b : a;
    }

    /** Leaf count: the smallest power of two >= the pool size. */
    u32 leaves_ = 1;
    /** Winner tree: slot 0 unused, slots [L, 2L) are the leaves. */
    std::vector<u32> tree_;
    /** Current load per leaf (padding leaves: the maximum). */
    std::vector<u64> load_;
};

/**
 * Chunked FIFO request storage on a ScratchArena slot. All device
 * queues of one service cell share one pool; chunks are recycled
 * through a free list and the backing slot is grow-only, so the
 * steady-state hot loop performs no heap allocation. Chunks are
 * addressed by index, not pointer — the backing buffer may move when
 * the slot grows.
 */
class RequestPool
{
  public:
    /** Null chunk index. */
    static constexpr u32 kNil = 0xffffffffu;
    /** Requests per chunk: 21 × 24 B + link ≈ one 512 B chunk. */
    static constexpr u32 kChunkCap = 21;

    /** One device's FIFO handle (plain data, owned by the caller). */
    struct Queue
    {
        u32 head = kNil;
        u32 tail = kNil;
        /** Consumed prefix of the head chunk. */
        u32 headOff = 0;
        /** Filled prefix of the tail chunk. */
        u32 tailLen = 0;
        u64 size = 0;
    };

    explicit RequestPool(ScratchArena &arena) : arena_(arena) {}

    void pushBack(Queue &q, const Request &r)
    {
        if (q.tail == kNil || q.tailLen == kChunkCap) {
            const u32 c = allocChunk();
            chunk(c).next = kNil;
            if (q.tail == kNil) {
                q.head = q.tail = c;
                q.headOff = 0;
            } else {
                chunk(q.tail).next = c;
                q.tail = c;
            }
            q.tailLen = 0;
        }
        chunk(q.tail).items[q.tailLen++] = r;
        ++q.size;
    }

    const Request &front(const Queue &q) const
    {
        PLUTO_ASSERT(q.size > 0);
        return chunk(q.head).items[q.headOff];
    }

    /** Visit the first `n` queued requests in FIFO order. */
    template <typename Fn>
    void forEach(const Queue &q, u64 n, Fn &&fn) const
    {
        PLUTO_ASSERT(n <= q.size);
        u32 c = q.head;
        u32 off = q.headOff;
        for (u64 i = 0; i < n; ++i) {
            if (off == kChunkCap) {
                c = chunk(c).next;
                off = 0;
            }
            fn(chunk(c).items[off++]);
        }
    }

    /**
     * @return length of the FIFO prefix sharing the front request's
     * class — the polling loop's batch-eligibility rule.
     */
    u64 eligiblePrefix(const Queue &q) const
    {
        if (q.size == 0)
            return 0;
        const u32 cls = front(q).cls;
        u64 n = 0;
        u32 c = q.head;
        u32 off = q.headOff;
        for (u64 i = 0; i < q.size; ++i) {
            if (off == kChunkCap) {
                c = chunk(c).next;
                off = 0;
            }
            if (chunk(c).items[off++].cls != cls)
                break;
            ++n;
        }
        return n;
    }

    /** Drop the first `n` requests, recycling drained chunks. */
    void popFront(Queue &q, u64 n)
    {
        PLUTO_ASSERT(n <= q.size);
        q.size -= n;
        if (q.size == 0) {
            // Release the whole chain.
            u32 c = q.head;
            while (c != kNil) {
                const u32 next = chunk(c).next;
                freeChunk(c);
                c = next;
            }
            q = Queue{};
            return;
        }
        q.headOff += static_cast<u32>(n);
        while (q.headOff >= kChunkCap) {
            const u32 next = chunk(q.head).next;
            freeChunk(q.head);
            q.head = next;
            q.headOff -= kChunkCap;
        }
    }

  private:
    struct Chunk
    {
        Request items[kChunkCap];
        u32 next = kNil;
    };
    static_assert(std::is_trivially_copyable_v<Request>,
                  "RequestPool stores Requests in raw arena bytes");

    Chunk &chunk(u32 idx) { return base_[idx]; }
    const Chunk &chunk(u32 idx) const { return base_[idx]; }

    u32 allocChunk()
    {
        if (freeHead_ != kNil) {
            const u32 c = freeHead_;
            freeHead_ = chunk(c).next;
            return c;
        }
        const u32 c = count_++;
        base_ = reinterpret_cast<Chunk *>(
            arena_.bytes(ScratchArena::ServeRequests,
                         static_cast<std::size_t>(count_) *
                             sizeof(Chunk))
                .data());
        return c;
    }

    void freeChunk(u32 c)
    {
        chunk(c).next = freeHead_;
        freeHead_ = c;
    }

    ScratchArena &arena_;
    Chunk *base_ = nullptr;
    u32 count_ = 0;
    u32 freeHead_ = kNil;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_ENGINE_HH
