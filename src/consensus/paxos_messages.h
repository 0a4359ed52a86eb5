// Paxos wire messages.
#pragma once

#include <optional>

#include "consensus/paxos.h"
#include "runtime/message.h"

namespace wrs {

class PaxPrepare : public MessageBase<PaxPrepare> {
 public:
  PaxPrepare(InstanceId inst, Ballot b) : inst_(inst), ballot_(b) {}
  InstanceId instance() const { return inst_; }
  Ballot ballot() const { return ballot_; }
  std::string type_name() const override { return "PAX_PREPARE"; }

 private:
  InstanceId inst_;
  Ballot ballot_;
};

class PaxPromise : public MessageBase<PaxPromise> {
 public:
  PaxPromise(InstanceId inst, Ballot b, bool ok,
             std::optional<Ballot> accepted_ballot, PaxosValue accepted_value)
      : inst_(inst),
        ballot_(b),
        ok_(ok),
        accepted_ballot_(accepted_ballot),
        accepted_value_(std::move(accepted_value)) {}
  InstanceId instance() const { return inst_; }
  Ballot ballot() const { return ballot_; }
  bool ok() const { return ok_; }
  const std::optional<Ballot>& accepted_ballot() const {
    return accepted_ballot_;
  }
  const PaxosValue& accepted_value() const { return accepted_value_; }
  std::string type_name() const override { return "PAX_PROMISE"; }

 private:
  InstanceId inst_;
  Ballot ballot_;
  bool ok_;
  std::optional<Ballot> accepted_ballot_;
  PaxosValue accepted_value_;
};

class PaxAccept : public MessageBase<PaxAccept> {
 public:
  PaxAccept(InstanceId inst, Ballot b, PaxosValue value)
      : inst_(inst), ballot_(b), value_(std::move(value)) {}
  InstanceId instance() const { return inst_; }
  Ballot ballot() const { return ballot_; }
  const PaxosValue& value() const { return value_; }
  std::string type_name() const override { return "PAX_ACCEPT"; }

 private:
  InstanceId inst_;
  Ballot ballot_;
  PaxosValue value_;
};

class PaxAccepted : public MessageBase<PaxAccepted> {
 public:
  PaxAccepted(InstanceId inst, Ballot b, bool ok)
      : inst_(inst), ballot_(b), ok_(ok) {}
  InstanceId instance() const { return inst_; }
  Ballot ballot() const { return ballot_; }
  bool ok() const { return ok_; }
  std::string type_name() const override { return "PAX_ACCEPTED"; }

 private:
  InstanceId inst_;
  Ballot ballot_;
  bool ok_;
};

class PaxLearn : public MessageBase<PaxLearn> {
 public:
  PaxLearn(InstanceId inst, PaxosValue value)
      : inst_(inst), value_(std::move(value)) {}
  InstanceId instance() const { return inst_; }
  const PaxosValue& value() const { return value_; }
  std::string type_name() const override { return "PAX_LEARN"; }

 private:
  InstanceId inst_;
  PaxosValue value_;
};

}  // namespace wrs
