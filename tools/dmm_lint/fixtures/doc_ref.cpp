// Seeded violations for the doc-ref rule: comments naming documents that
// do not exist in the repo.

// The substitution table lives in NO_SUCH_NOTES.md.  // expect: doc-ref

/* Block comments count too: see docs/missing/GUIDE.md  // expect: doc-ref
   for the details. */

// Documents that exist are never flagged: README.md, perfbench/README.md.

// Neither is a name outside a comment.
const char* kNotAComment = "NOT_A_DOC.md";
