#ifndef DMM_ALLOC_SHAPE_H
#define DMM_ALLOC_SHAPE_H

#include <cassert>
#include <cstddef>

#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/config.h"

namespace dmm::alloc {

/// Bytes of in-payload link space the A1 block structure needs per free
/// block.
[[nodiscard]] constexpr std::size_t link_bytes(BlockStructure ddt) {
  switch (ddt) {
    case BlockStructure::kSinglyLinkedList:
    case BlockStructure::kSinglySortedBySize:
      return sizeof(std::byte*);
    case BlockStructure::kDoublyLinkedList:
    case BlockStructure::kDoublySortedBySize:
      return 2 * sizeof(std::byte*);
    case BlockStructure::kSizeBinaryTree:
      return 3 * sizeof(std::byte*);
  }
  return 2 * sizeof(std::byte*);
}

// ---------------------------------------------------------------------------
// Block shapes: the A1 (block structure) and A3/A4 (block tags, recorded
// info) leaves, which decide how every block and free link is laid out.
// Pool<Shape> and FreeIndex<Shape> are written once against this
// interface:
//
//   structure()  the A1 leaf
//   layout()     the BlockLayout the A3/A4 leaves derive
//
// A FixedShape answers both at compile time, so the hot path folds every
// layout test away; DynamicShape reads them from the vector at run time
// and serves every triple no FixedShape names.  Both are built from the
// same (A1, layout) pair, so the instantiations make the same decisions.
// ---------------------------------------------------------------------------

template <BlockStructure A1, BlockTags A3, RecordedInfo A4>
class FixedShape {
 public:
  static constexpr BlockLayout kLayout = BlockLayout::from(A3, A4);

  constexpr FixedShape() = default;
  constexpr FixedShape(BlockStructure ddt, const BlockLayout& layout) {
    assert(ddt == A1 && layout == kLayout);
    (void)ddt;
    (void)layout;
  }

  [[nodiscard]] static constexpr BlockStructure structure() { return A1; }
  [[nodiscard]] static constexpr const BlockLayout& layout() {
    return kLayout;
  }
};

class DynamicShape {
 public:
  DynamicShape(BlockStructure ddt, const BlockLayout& layout)
      : ddt_(ddt), layout_(layout) {}

  [[nodiscard]] BlockStructure structure() const { return ddt_; }
  [[nodiscard]] const BlockLayout& layout() const { return layout_; }

 private:
  BlockStructure ddt_;
  BlockLayout layout_;
};

/// The one FixedShape: doubly linked free list, header and footer, size
/// and status.  Every replay of the drr and recon3d greedy walks and most
/// of render3d's run on it.  Measured against DynamicShape on the DRR
/// design, it cuts the request time by about an eighth; a triple earns its
/// own FixedShape only with such a measured gain.
using DllBoundaryShape =
    FixedShape<BlockStructure::kDoublyLinkedList, BlockTags::kHeaderFooter,
               RecordedInfo::kSizeAndStatus>;

enum class ShapeId {
  kDynamic,
  kDllBoundary,
};

/// The instantiation a vector runs on: a pure function of its A1, A3 and
/// A4 leaves, which canonical() never rewrites.
[[nodiscard]] constexpr ShapeId shape_id(const DmmConfig& cfg) {
  if (cfg.block_structure == BlockStructure::kDoublyLinkedList &&
      cfg.block_tags == BlockTags::kHeaderFooter &&
      cfg.recorded_info == RecordedInfo::kSizeAndStatus) {
    return ShapeId::kDllBoundary;
  }
  return ShapeId::kDynamic;
}

/// Calls `fn.template operator()<S>()` with the shape type @p id names:
/// the one switch between a vector and its instantiation.
template <class Fn>
decltype(auto) with_shape(ShapeId id, Fn&& fn) {
  if (id == ShapeId::kDllBoundary) {
    return fn.template operator()<DllBoundaryShape>();
  }
  return fn.template operator()<DynamicShape>();
}

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_SHAPE_H
