#include "kg/binary_io.h"

#include <string_view>
#include <unordered_map>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::kg {
namespace {

constexpr std::string_view kMagicV1 = "SDEAKGB1";
constexpr std::string_view kMagicV2 = "SDEAKGB2";

// On-disk chunk sizes of the v2 format. Fixed (not taken from the graph's
// in-memory options) so the same logical graph always encodes to the same
// bytes regardless of how it was built.
constexpr uint32_t kRelChunkRows = 4096;
constexpr uint32_t kAttrChunkRows = 2048;
// A v2 attribute chunk dictionary-encodes when distinct*100 <= rows*this.
constexpr uint32_t kDictMaxDistinctPct = 75;

constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

Status OutOfRange() {
  return Status::InvalidArgument("binary KG triple out of range");
}
Status AttributeOutOfRange() {
  return Status::InvalidArgument("binary KG attribute triple out of range");
}

void EncodeNameTables(const KnowledgeGraph& graph, wire::Writer* w) {
  w->U32(static_cast<uint32_t>(graph.num_entities()));
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    w->Str32(graph.entity_name(e));
  }
  w->U32(static_cast<uint32_t>(graph.num_relations()));
  for (RelationId r = 0; r < graph.num_relations(); ++r) {
    w->Str32(graph.relation_name(r));
  }
  w->U32(static_cast<uint32_t>(graph.num_attributes()));
  for (AttributeId a = 0; a < graph.num_attributes(); ++a) {
    w->Str32(graph.attribute_name(a));
  }
}

/// Decodes one name table through `intern`, which adds a name and returns
/// its id. A name that interns to an earlier id is a duplicate: the
/// declared count would then exceed the real table, and later triples
/// could name ids that do not exist.
template <typename Intern>
Status DecodeNames(wire::Reader* r, const char* kind, uint32_t* count,
                   Intern intern) {
  *count = r->Count32(4);  // Each name is at least its u32 length.
  for (uint32_t i = 0; i < *count && r->ok(); ++i) {
    const std::string name = r->Str32();
    if (r->ok() && intern(name) != static_cast<int32_t>(i)) {
      return Status::InvalidArgument(std::string("duplicate ") + kind +
                                     " name in binary KG");
    }
  }
  return r->Check("binary KG name tables");
}

/// Decodes the three name tables shared by both format versions into `g`.
/// `counts` receives {entities, relations, attributes} for later id range
/// checks.
Status DecodeNameTables(wire::Reader* r, KnowledgeGraph* g,
                        uint32_t counts[3]) {
  SDEA_RETURN_IF_ERROR(DecodeNames(
      r, "entity", &counts[0],
      [g](const std::string& name) { return g->AddEntity(name); }));
  SDEA_RETURN_IF_ERROR(DecodeNames(
      r, "relation", &counts[1],
      [g](const std::string& name) { return g->AddRelation(name); }));
  return DecodeNames(
      r, "attribute", &counts[2],
      [g](const std::string& name) { return g->AddAttribute(name); });
}

Result<KnowledgeGraph> DecodeBinaryV1(wire::Reader r) {
  KnowledgeGraph g;
  g.BeginBulkLoad();
  uint32_t counts[3] = {0, 0, 0};
  SDEA_RETURN_IF_ERROR(DecodeNameTables(&r, &g, counts));
  const uint32_t entities = counts[0];
  const uint32_t relations = counts[1];
  const uint32_t attributes = counts[2];

  // Fixed 12-byte rows: once the count is bounded, no row read can fail.
  const uint32_t rel_triples = r.Count32(12);
  for (uint32_t i = 0; i < rel_triples; ++i) {
    const uint32_t h = r.U32(), rel = r.U32(), t = r.U32();
    if (h >= entities || t >= entities || rel >= relations) {
      return OutOfRange();
    }
    g.AddRelationalTriple(static_cast<EntityId>(h),
                          static_cast<RelationId>(rel),
                          static_cast<EntityId>(t));
  }
  const uint32_t attr_triples = r.Count32(12);
  for (uint32_t i = 0; i < attr_triples && r.ok(); ++i) {
    const uint32_t e = r.U32(), a = r.U32();
    std::string value = r.Str32();
    if (e >= entities || a >= attributes) return AttributeOutOfRange();
    g.AddAttributeTriple(static_cast<EntityId>(e),
                         static_cast<AttributeId>(a), std::move(value));
  }
  SDEA_RETURN_IF_ERROR(r.End("binary KG triples"));
  g.EndBulkLoad();
  return g;
}

/// Reads a v2 section header: the row count (each row at least
/// `min_row_bytes`) and the chunk size.
Status ReadSectionHeader(wire::Reader* r, size_t min_row_bytes,
                         uint32_t* rows, uint32_t* chunk) {
  *rows = r->Count32(min_row_bytes);
  *chunk = r->U32();
  SDEA_RETURN_IF_ERROR(r->Check("binary KG section header"));
  if (*rows > 0 && *chunk == 0) {
    return Status::InvalidArgument("binary KG chunk size is zero");
  }
  return Status::Ok();
}

std::vector<uint32_t> ReadColumn(wire::Reader* r, uint32_t rows) {
  std::vector<uint32_t> col(rows);
  for (uint32_t& v : col) v = r->U32();
  return col;
}

Result<KnowledgeGraph> DecodeBinaryV2(wire::Reader r) {
  KnowledgeGraph g;
  g.BeginBulkLoad();
  uint32_t counts[3] = {0, 0, 0};
  SDEA_RETURN_IF_ERROR(DecodeNameTables(&r, &g, counts));
  const uint32_t entities = counts[0];
  const uint32_t relations = counts[1];
  const uint32_t attributes = counts[2];

  // ---- Relational chunks: three u32 columns per chunk. -------------------
  uint32_t rel_rows = 0, rel_chunk = 0;
  SDEA_RETURN_IF_ERROR(ReadSectionHeader(&r, 12, &rel_rows, &rel_chunk));
  for (uint32_t base = 0; base < rel_rows && r.ok(); base += rel_chunk) {
    const uint32_t rows = std::min(rel_chunk, rel_rows - base);
    const std::vector<uint32_t> heads = ReadColumn(&r, rows);
    const std::vector<uint32_t> rels = ReadColumn(&r, rows);
    const std::vector<uint32_t> tails = ReadColumn(&r, rows);
    for (uint32_t i = 0; i < rows; ++i) {
      if (heads[i] >= entities || tails[i] >= entities ||
          rels[i] >= relations) {
        return OutOfRange();
      }
      g.AddRelationalTriple(static_cast<EntityId>(heads[i]),
                            static_cast<RelationId>(rels[i]),
                            static_cast<EntityId>(tails[i]));
    }
  }
  SDEA_RETURN_IF_ERROR(r.Check("binary KG relational chunks"));

  // ---- Attribute chunks: two u32 id columns + per-chunk value encoding. --
  // Minimum bytes per row: entity + attribute + (code | empty string) = 12.
  uint32_t attr_rows = 0, attr_chunk = 0;
  SDEA_RETURN_IF_ERROR(ReadSectionHeader(&r, 12, &attr_rows, &attr_chunk));
  for (uint32_t base = 0; base < attr_rows && r.ok(); base += attr_chunk) {
    const uint32_t rows = std::min(attr_chunk, attr_rows - base);
    const std::vector<uint32_t> ents = ReadColumn(&r, rows);
    const std::vector<uint32_t> attrs = ReadColumn(&r, rows);
    for (uint32_t i = 0; i < rows; ++i) {
      if (ents[i] >= entities || attrs[i] >= attributes) {
        return AttributeOutOfRange();
      }
    }
    auto add = [&](uint32_t i, std::string value) {
      g.AddAttributeTriple(static_cast<EntityId>(ents[i]),
                           static_cast<AttributeId>(attrs[i]),
                           std::move(value));
    };
    const uint8_t encoding = r.U8();
    if (encoding == kEncodingDict) {
      const uint32_t dict_n = r.U32();
      // A first-occurrence dictionary never has more entries than rows.
      if (dict_n > rows) {
        return Status::InvalidArgument(
            "binary KG chunk dictionary larger than chunk");
      }
      std::vector<std::string> dict(dict_n);
      for (std::string& v : dict) v = r.Str32();
      const std::vector<uint32_t> codes = ReadColumn(&r, rows);
      SDEA_RETURN_IF_ERROR(r.Check("binary KG attribute dictionary"));
      for (uint32_t i = 0; i < rows; ++i) {
        if (codes[i] >= dict_n) {
          return Status::InvalidArgument(
              "binary KG dictionary code out of range");
        }
        add(i, dict[codes[i]]);
      }
    } else if (encoding == kEncodingPlain) {
      for (uint32_t i = 0; i < rows; ++i) add(i, r.Str32());
    } else {
      return Status::InvalidArgument("binary KG chunk encoding unknown");
    }
  }
  SDEA_RETURN_IF_ERROR(r.End("binary KG attribute chunks"));
  g.EndBulkLoad();
  return g;
}

}  // namespace

std::string EncodeBinary(const KnowledgeGraph& graph) {
  std::string out(kMagicV2);
  wire::Writer w(&out);
  EncodeNameTables(graph, &w);

  const ColumnarKgStore& store = graph.columnar();

  // Relational section: rows re-chunked at the fixed on-disk size, each
  // chunk written as three contiguous u32 columns.
  w.U32(static_cast<uint32_t>(store.latest_rel_rows()));
  w.U32(kRelChunkRows);
  std::vector<uint32_t> heads, rels, tails;
  auto flush_rel = [&] {
    for (uint32_t h : heads) w.U32(h);
    for (uint32_t r : rels) w.U32(r);
    for (uint32_t t : tails) w.U32(t);
    heads.clear();
    rels.clear();
    tails.clear();
  };
  store.LatestForEachRelational(
      0, [&](int64_t /*row*/, EntityId h, RelationId r, EntityId t) {
        heads.push_back(static_cast<uint32_t>(h));
        rels.push_back(static_cast<uint32_t>(r));
        tails.push_back(static_cast<uint32_t>(t));
        if (heads.size() == kRelChunkRows) flush_rel();
      });
  if (!heads.empty()) flush_rel();

  // Attribute section: id columns plus a per-chunk value encoding decided
  // by the chunk's own duplication (dictionary when it pays for itself).
  w.U32(static_cast<uint32_t>(store.latest_attr_rows()));
  w.U32(kAttrChunkRows);
  std::vector<uint32_t> ents, attrs;
  std::vector<const std::string*> values;
  auto flush_attr = [&] {
    for (uint32_t e : ents) w.U32(e);
    for (uint32_t a : attrs) w.U32(a);
    std::unordered_map<std::string_view, uint32_t> index;
    std::vector<uint32_t> codes;
    codes.reserve(values.size());
    std::vector<const std::string*> dict;
    for (const std::string* v : values) {
      auto [it, inserted] =
          index.try_emplace(*v, static_cast<uint32_t>(dict.size()));
      if (inserted) dict.push_back(v);
      codes.push_back(it->second);
    }
    if (dict.size() * 100 <= values.size() * kDictMaxDistinctPct) {
      w.U8(kEncodingDict);
      w.U32(static_cast<uint32_t>(dict.size()));
      for (const std::string* v : dict) w.Str32(*v);
      for (uint32_t c : codes) w.U32(c);
    } else {
      w.U8(kEncodingPlain);
      for (const std::string* v : values) w.Str32(*v);
    }
    ents.clear();
    attrs.clear();
    values.clear();
  };
  store.LatestForEachAttribute(
      0, [&](int64_t /*row*/, EntityId e, AttributeId a,
             const std::string& value) {
        ents.push_back(static_cast<uint32_t>(e));
        attrs.push_back(static_cast<uint32_t>(a));
        values.push_back(&value);
        if (values.size() == kAttrChunkRows) flush_attr();
      });
  if (!values.empty()) flush_attr();
  return out;
}

Status SaveBinary(const KnowledgeGraph& graph, const std::string& path) {
  // Atomic (temp + rename): a crash mid-save must never leave a truncated
  // file that a later LoadBinary rejects — or worse, half-parses.
  return WriteStringToFileAtomic(path, EncodeBinary(graph));
}

Result<KnowledgeGraph> DecodeBinary(const std::string& data) {
  const std::string_view magic = std::string_view(data).substr(0, 8);
  wire::Reader r(std::string_view(data).substr(magic.size()));
  if (magic == kMagicV2) return DecodeBinaryV2(r);
  if (magic == kMagicV1) return DecodeBinaryV1(r);
  return Status::InvalidArgument("not an SDEA binary KG");
}

Result<KnowledgeGraph> LoadBinary(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  auto decoded = DecodeBinary(data);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

}  // namespace sdea::kg
