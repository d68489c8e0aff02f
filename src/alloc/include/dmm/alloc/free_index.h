#ifndef DMM_ALLOC_FREE_INDEX_H
#define DMM_ALLOC_FREE_INDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/shape.h"

namespace dmm::alloc {

namespace detail {
/// Prints "dmm::alloc::<who> fatal: <what>" and aborts (tripwires).
[[noreturn]] void fatal(const char* who, const char* what);
}  // namespace detail

/// Effective C2 discipline of an A1 block structure: self-ordering DDTs
/// override @p order with size order.
[[nodiscard]] constexpr FreeListOrder effective_order(BlockStructure ddt,
                                                      FreeListOrder order) {
  return ddt == BlockStructure::kSinglySortedBySize ||
                 ddt == BlockStructure::kDoublySortedBySize ||
                 ddt == BlockStructure::kSizeBinaryTree
             ? FreeListOrder::kSizeOrdered
             : order;
}

/// Free-block structure of a pool: the runtime realisation of tree A1
/// (block structure DDT), honouring tree C2 (free-list ordering) and
/// serving tree C1 (fit algorithms).
///
/// All link words live *inside the payload of the free blocks themselves*
/// (in-band), so the index adds no per-block footprint beyond the minimum
/// free-block size — exactly how the paper's managers are built.
///
/// Block sizes come either from the block header (tree A4) or from the
/// pool's fixed block size when blocks carry no tags — the index reads
/// them directly through the layout, keeping the hot path call-free.
/// @p Shape (see shape.h) fixes A1 and the layout at compile time or
/// reads them at run time (DynamicShape); the code is the same.
///
/// The index counts traversal steps (`scan_steps`) as an
/// architecture-neutral work measure used by the performance benches.
template <class Shape>
class FreeIndex {
 public:
  /// @param order       tree C2 leaf (self-ordering DDTs override it)
  /// @param fixed_size  pool's fixed block size; 0 = read from headers
  FreeIndex(const Shape& shape, FreeListOrder order, std::size_t fixed_size)
      : shape_(shape),
        order_(effective_order(shape.structure(), order)),
        fixed_size_(fixed_size) {}

  /// @param ddt     tree A1 leaf
  /// @param layout  block layout (header offset and size field)
  FreeIndex(BlockStructure ddt, FreeListOrder order, const BlockLayout& layout,
            std::size_t fixed_size)
      : FreeIndex(Shape(ddt, layout), order, fixed_size) {}

  FreeIndex(const FreeIndex&) = delete;
  FreeIndex& operator=(const FreeIndex&) = delete;

  /// Threads @p block into the structure.
  [[gnu::always_inline]] void insert(std::byte* block);

  /// Unthreads @p block.  Aborts if the block is not present (tripwire).
  [[gnu::always_inline]] void remove(std::byte* block);

  /// Finds a block satisfying @p need bytes per the C1 leaf @p fit,
  /// unthreads and returns it; nullptr if no free block fits.
  [[nodiscard, gnu::always_inline]] std::byte* take_fit(std::size_t need,
                                                      FitAlgorithm fit);

  /// Unthreads and returns any block (used when draining a pool).
  [[nodiscard]] std::byte* pop_any();

  /// Linear/structural membership test — O(n), for tests and tripwires.
  [[nodiscard]] bool contains(const std::byte* block) const;

  /// Visits every free block (unspecified order).
  template <class Fn>
  void for_each(Fn&& fn) const;

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t scan_steps() const { return scan_steps_; }

  [[nodiscard]] BlockStructure structure() const { return shape_.structure(); }
  /// Effective C2 discipline: the constructor's ordering, overridden to
  /// size-ordered by self-ordering DDTs.
  [[nodiscard]] FreeListOrder order() const { return order_; }

 private:
  // --- in-payload node overlays, at block + header bytes ---
  struct ListNode {
    std::byte* next;
    std::byte* prev;  // present only for doubly-linked DDTs
  };
  struct TreeNode {
    std::byte* left;
    std::byte* right;
    std::byte* parent;
  };

  [[nodiscard]] ListNode* list_node(std::byte* b) const {
    return reinterpret_cast<ListNode*>(b + shape_.layout().header_bytes());
  }
  [[nodiscard]] TreeNode* tree_node(std::byte* b) const {
    return reinterpret_cast<TreeNode*>(b + shape_.layout().header_bytes());
  }
  [[nodiscard]] std::size_t size_of(const std::byte* b) const {
    return fixed_size_ != 0 ? fixed_size_ : shape_.layout().read_size(b);
  }
  [[nodiscard]] bool is_tree() const {
    return shape_.structure() == BlockStructure::kSizeBinaryTree;
  }
  [[nodiscard]] bool doubly_linked() const {
    return shape_.structure() == BlockStructure::kDoublyLinkedList ||
           shape_.structure() == BlockStructure::kDoublySortedBySize;
  }

  // list primitives
  [[gnu::always_inline]] void list_push_front(std::byte* b);
  void list_push_back(std::byte* b);
  void list_insert_sorted(std::byte* b, bool by_size);
  [[gnu::always_inline]] void list_unlink(std::byte* b, std::byte* prev_hint);
  [[nodiscard]] std::byte* list_prev_of(std::byte* b) const;  // O(n) for SLL
  [[nodiscard, gnu::always_inline]] std::byte* list_take(std::size_t need,
                                                       FitAlgorithm fit);
  /// First block >= need from @p start to the list's end (or to @p stop),
  /// unthreaded; @p prev is @p start's predecessor.
  [[nodiscard]] std::byte* list_scan(std::byte* start, std::byte* prev,
                                     std::byte* stop, std::size_t need);
  /// Unthreads the fit @p b (predecessor @p prev) and moves the next-fit
  /// cursor past it.
  [[gnu::always_inline]] std::byte* list_pick(std::byte* b, std::byte* prev);

  // tree primitives (BST keyed by (size, address))
  void tree_insert(std::byte* b);
  void tree_remove(std::byte* b);
  [[nodiscard]] std::byte* tree_take(std::size_t need, FitAlgorithm fit);
  [[nodiscard]] bool tree_key_less(const std::byte* a,
                                   const std::byte* b) const {
    const std::size_t sa = size_of(a);
    const std::size_t sb = size_of(b);
    return sa < sb || (sa == sb && a < b);
  }

  [[no_unique_address]] Shape shape_;
  FreeListOrder order_;
  std::size_t fixed_size_;

  std::byte* head_ = nullptr;
  std::byte* tail_ = nullptr;
  std::byte* cursor_ = nullptr;  ///< next-fit roving pointer
  std::byte* root_ = nullptr;    ///< BST root
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  mutable std::uint64_t scan_steps_ = 0;
};

// ---------------------------------------------------------------------------
// insert / remove / take dispatch
// ---------------------------------------------------------------------------

template <class Shape>
inline void FreeIndex<Shape>::insert(std::byte* block) {
  if (is_tree()) {
    tree_insert(block);
  } else if (count_ == 0) {
    // First resident block: every discipline files it identically (head =
    // tail = block, no scan).
    list_push_front(block);
  } else if (order_ == FreeListOrder::kSizeOrdered) {
    // With at least one resident block the insertion position depends on
    // the ordering policy (C2).
    list_insert_sorted(block, /*by_size=*/true);
  } else if (order_ == FreeListOrder::kAddressOrdered) {
    list_insert_sorted(block, /*by_size=*/false);
  } else if (order_ == FreeListOrder::kFIFO) {
    list_push_back(block);
  } else {
    list_push_front(block);
  }
  ++count_;
  bytes_ += size_of(block);
}

template <class Shape>
inline void FreeIndex<Shape>::remove(std::byte* block) {
  if (is_tree()) {
    tree_remove(block);
  } else {
    list_unlink(block, doubly_linked() ? nullptr : list_prev_of(block));
  }
  --count_;
  bytes_ -= size_of(block);
}

template <class Shape>
inline std::byte* FreeIndex<Shape>::take_fit(std::size_t need,
                                             FitAlgorithm fit) {
  if (count_ == 0) return nullptr;
  std::byte* b = nullptr;
  if (is_tree()) {
    b = tree_take(need, fit);
  } else if (count_ == 1) {
    // Single-node path, bit-identical to every fit algorithm: one scan
    // step, take iff it fits, cursor lands past the taken block.
    ++scan_steps_;
    if (size_of(head_) >= need) b = list_pick(head_, nullptr);
  } else {
    b = list_take(need, fit);
  }
  if (b != nullptr) {
    --count_;
    bytes_ -= size_of(b);
  }
  return b;
}

template <class Shape>
std::byte* FreeIndex<Shape>::pop_any() {
  if (count_ == 0) return nullptr;
  std::byte* b = nullptr;
  if (is_tree()) {
    b = root_;
    tree_remove(b);
  } else {
    b = head_;
    list_unlink(b, nullptr);
  }
  --count_;
  bytes_ -= size_of(b);
  return b;
}

template <class Shape>
bool FreeIndex<Shape>::contains(const std::byte* block) const {
  bool found = false;
  for_each([&](std::byte* b) { found = found || b == block; });
  return found;
}

template <class Shape>
template <class Fn>
void FreeIndex<Shape>::for_each(Fn&& fn) const {
  if (is_tree()) {
    // In-order traversal with an explicit stack; fn must not mutate the
    // tree (library-internal contract, only tests and pool drains use it).
    std::vector<std::byte*> stack;
    std::byte* cur = root_;
    while (cur != nullptr || !stack.empty()) {
      while (cur != nullptr) {
        stack.push_back(cur);
        cur = tree_node(cur)->left;
      }
      cur = stack.back();
      stack.pop_back();
      std::byte* right = tree_node(cur)->right;
      fn(cur);
      cur = right;
    }
    return;
  }
  for (std::byte* b = head_; b != nullptr; b = list_node(b)->next) fn(b);
}

// ---------------------------------------------------------------------------
// list primitives
// ---------------------------------------------------------------------------

template <class Shape>
inline void FreeIndex<Shape>::list_push_front(std::byte* b) {
  ListNode* n = list_node(b);
  n->next = head_;
  if (doubly_linked()) {
    n->prev = nullptr;
    if (head_ != nullptr) list_node(head_)->prev = b;
  }
  head_ = b;
  if (tail_ == nullptr) tail_ = b;
}

template <class Shape>
void FreeIndex<Shape>::list_push_back(std::byte* b) {
  ListNode* n = list_node(b);
  n->next = nullptr;
  if (doubly_linked()) n->prev = tail_;
  if (tail_ != nullptr) {
    list_node(tail_)->next = b;
  } else {
    head_ = b;
  }
  tail_ = b;
}

template <class Shape>
void FreeIndex<Shape>::list_insert_sorted(std::byte* b, bool by_size) {
  const std::size_t key = by_size ? size_of(b) : 0;
  std::byte* prev = nullptr;
  std::byte* cur = head_;
  while (cur != nullptr) {
    ++scan_steps_;
    const bool after = by_size ? (size_of(cur) < key ||
                                  (size_of(cur) == key && cur < b))
                               : (cur < b);
    if (!after) break;
    prev = cur;
    cur = list_node(cur)->next;
  }
  ListNode* n = list_node(b);
  n->next = cur;
  if (doubly_linked()) {
    n->prev = prev;
    if (cur != nullptr) list_node(cur)->prev = b;
  }
  if (prev != nullptr) {
    list_node(prev)->next = b;
  } else {
    head_ = b;
  }
  if (cur == nullptr) tail_ = b;
}

template <class Shape>
std::byte* FreeIndex<Shape>::list_prev_of(std::byte* b) const {
  if (b == head_) return nullptr;
  for (std::byte* cur = head_; cur != nullptr; cur = list_node(cur)->next) {
    ++scan_steps_;
    if (list_node(cur)->next == b) return cur;
  }
  detail::fatal("FreeIndex",
                "remove() of a block that is not in the free list");
}

template <class Shape>
inline void FreeIndex<Shape>::list_unlink(std::byte* b,
                                          std::byte* prev_hint) {
  ListNode* n = list_node(b);
  std::byte* prev = doubly_linked() ? n->prev : prev_hint;
  if (b == head_) {
    head_ = n->next;
  } else if (prev != nullptr) {
    list_node(prev)->next = n->next;
  } else {
    detail::fatal("FreeIndex", "unlink without predecessor");
  }
  if (doubly_linked() && n->next != nullptr) list_node(n->next)->prev = prev;
  if (b == tail_) tail_ = prev;
  if (cursor_ == b) cursor_ = n->next;
}

template <class Shape>
inline std::byte* FreeIndex<Shape>::list_pick(std::byte* b,
                                              std::byte* prev) {
  cursor_ = list_node(b)->next;
  list_unlink(b, prev);
  return b;
}

template <class Shape>
std::byte* FreeIndex<Shape>::list_scan(std::byte* start, std::byte* prev,
                                       std::byte* stop, std::size_t need) {
  for (std::byte* cur = start; cur != stop && cur != nullptr;
       prev = cur, cur = list_node(cur)->next) {
    ++scan_steps_;
    if (size_of(cur) >= need) return list_pick(cur, prev);
  }
  return nullptr;
}

template <class Shape>
inline std::byte* FreeIndex<Shape>::list_take(std::size_t need,
                                              FitAlgorithm fit) {
  switch (fit) {
    case FitAlgorithm::kFirstFit:
      return list_scan(head_, nullptr, nullptr, need);
    case FitAlgorithm::kNextFit: {
      std::byte* start = cursor_ != nullptr ? cursor_ : head_;
      // Scan [start, end), then wrap to [head, start).
      std::byte* prev = start == head_ ? nullptr : list_prev_of(start);
      std::byte* b = list_scan(start, prev, nullptr, need);
      return b != nullptr ? b : list_scan(head_, nullptr, start, need);
    }
    case FitAlgorithm::kBestFit:
    case FitAlgorithm::kExactFit: {
      // On a size-sorted list, the first block >= need IS the best fit, and
      // an exact fit (if any) is encountered first among fitting blocks.
      if (order_ == FreeListOrder::kSizeOrdered) {
        return list_scan(head_, nullptr, nullptr, need);
      }
      std::byte* best = nullptr;
      std::byte* best_prev = nullptr;
      std::size_t best_size = 0;
      std::byte* prev = nullptr;
      for (std::byte* cur = head_; cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        const std::size_t sz = size_of(cur);
        if (sz < need) continue;
        if (best == nullptr || sz < best_size) {
          best = cur;
          best_prev = prev;
          best_size = sz;
          if (sz == need) break;  // cannot do better than exact
        }
      }
      // kExactFit differs from kBestFit only in *intent*: it insists on the
      // exact size when available and otherwise degrades to best fit, which
      // is the same choice best fit makes — but exact fit is typically
      // paired with always-split so the remainder is recovered (Sec. 5).
      return best != nullptr ? list_pick(best, best_prev) : nullptr;
    }
    case FitAlgorithm::kWorstFit: {
      std::byte* worst = nullptr;
      std::byte* worst_prev = nullptr;
      std::size_t worst_size = 0;
      std::byte* prev = nullptr;
      for (std::byte* cur = head_; cur != nullptr;
           prev = cur, cur = list_node(cur)->next) {
        ++scan_steps_;
        const std::size_t sz = size_of(cur);
        if (sz < need) continue;
        if (worst == nullptr || sz > worst_size) {
          worst = cur;
          worst_prev = prev;
          worst_size = sz;
        }
      }
      return worst != nullptr ? list_pick(worst, worst_prev) : nullptr;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// BST primitives — unbalanced binary search tree keyed by (size, address).
// Worst-case linear, expected logarithmic on the workloads' size mixes;
// the scan_steps counter exposes the real cost either way.
// ---------------------------------------------------------------------------

template <class Shape>
void FreeIndex<Shape>::tree_insert(std::byte* b) {
  TreeNode* n = tree_node(b);
  n->left = n->right = n->parent = nullptr;
  if (root_ == nullptr) {
    root_ = b;
    return;
  }
  std::byte* cur = root_;
  while (true) {
    ++scan_steps_;
    TreeNode* c = tree_node(cur);
    std::byte*& child = tree_key_less(b, cur) ? c->left : c->right;
    if (child == nullptr) {
      child = b;
      n->parent = cur;
      return;
    }
    cur = child;
  }
}

template <class Shape>
void FreeIndex<Shape>::tree_remove(std::byte* b) {
  TreeNode* n = tree_node(b);

  auto replace_in_parent = [&](std::byte* child) {
    if (n->parent == nullptr) {
      root_ = child;
    } else {
      TreeNode* p = tree_node(n->parent);
      (p->left == b ? p->left : p->right) = child;
    }
    if (child != nullptr) tree_node(child)->parent = n->parent;
  };

  if (n->left != nullptr && n->right != nullptr) {
    // Two children: splice in the in-order successor (min of right subtree).
    std::byte* succ = n->right;
    while (tree_node(succ)->left != nullptr) {
      ++scan_steps_;
      succ = tree_node(succ)->left;
    }
    TreeNode* s = tree_node(succ);
    // Detach successor (it has no left child).
    if (s->parent != b) {
      TreeNode* sp = tree_node(s->parent);
      sp->left = s->right;
      if (s->right != nullptr) tree_node(s->right)->parent = s->parent;
      s->right = n->right;
      tree_node(n->right)->parent = succ;
    }
    s->left = n->left;
    if (n->left != nullptr) tree_node(n->left)->parent = succ;
    replace_in_parent(succ);
    return;
  }
  replace_in_parent(n->left != nullptr ? n->left : n->right);
}

template <class Shape>
std::byte* FreeIndex<Shape>::tree_take(std::size_t need, FitAlgorithm fit) {
  if (root_ == nullptr) return nullptr;
  std::byte* found = nullptr;
  if (fit == FitAlgorithm::kWorstFit) {
    std::byte* cur = root_;
    while (tree_node(cur)->right != nullptr) {
      ++scan_steps_;
      cur = tree_node(cur)->right;
    }
    if (size_of(cur) >= need) found = cur;
  } else {
    // Best/exact/first/next all resolve to "smallest block >= need" on a
    // size-keyed tree (first/next have no positional meaning here; the
    // constraint engine flags those pairings as linked decisions).
    std::byte* cur = root_;
    while (cur != nullptr) {
      ++scan_steps_;
      if (size_of(cur) >= need) {
        found = cur;
        cur = tree_node(cur)->left;
      } else {
        cur = tree_node(cur)->right;
      }
    }
  }
  if (found != nullptr) tree_remove(found);
  return found;
}

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_FREE_INDEX_H
