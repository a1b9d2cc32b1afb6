#include "runtime/batch.h"

namespace themis {

void Batch::RefreshHeaderSic() { header.sic = TotalSic(); }

double Batch::TotalSic() const {
  double sum = 0.0;
  for (const Tuple& t : tuples) sum += t.sic;
  return sum;
}

Batch MakeBatch(QueryId query, OperatorId op, int port, SimTime created,
                std::vector<Tuple> tuples) {
  Batch b;
  b.header.query_id = query;
  b.header.dest_op = op;
  b.header.dest_port = port;
  b.header.created = created;
  b.tuples = std::move(tuples);
  b.RefreshHeaderSic();
  return b;
}

}  // namespace themis
