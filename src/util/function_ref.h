// A non-owning reference to a callable, for callbacks that never outlive
// the call they are passed to. Unlike std::function it never allocates or
// copies the callable: it holds the callable's address and one function
// pointer.
#ifndef KBIPLEX_UTIL_FUNCTION_REF_H_
#define KBIPLEX_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace kbiplex {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Refers to `fn`, which must outlive every call through this reference.
  /// Implicit, so that a lambda binds at the call site of a function
  /// taking a FunctionRef.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_FUNCTION_REF_H_
